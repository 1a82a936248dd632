package main

import (
	"context"
	"flag"
	"slices"
	"strings"
	"testing"
	"time"

	"fifl/internal/transport"
)

// parseArgs parses args into a fresh FlagSet carrying fifl-node's own
// flags, each reset to its default first.
func parseArgs(t *testing.T, args []string) *flag.FlagSet {
	t.Helper()
	fs := flag.NewFlagSet("fifl-node", flag.ContinueOnError)
	flag.VisitAll(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "test.") {
			return
		}
		if err := f.Value.Set(f.DefValue); err != nil {
			t.Fatal(err)
		}
		fs.Var(f.Value, f.Name, f.Usage)
	})
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parsing %v: %v", args, err)
	}
	return fs
}

func TestCheckRoleFlags(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		reject string // the flag named in the error; "" = accepted
	}{
		{[]string{"-role", "coordinator", "-workers", "2", "-rounds", "1", "-samples", "40", "-listen", "127.0.0.1:0", "-pprof", "127.0.0.1:0"}, ""},
		{[]string{"-role", "coordinator", "-checkpoint", "d", "-checkpoint-every", "1", "-halt-after", "3", "-async", "-advance-interval", "2s"}, ""},
		{[]string{"-role", "worker", "-id", "1", "-coordinator", "http://127.0.0.1:7070", "-audit", "-retry", "60", "-retry-backoff", "250ms"}, ""},
		{[]string{"-role", "worker", "-join", "-compression", "int8", "-audit-every", "4"}, ""},
		{[]string{"-role", "root", "-workers", "4", "-shards", "2", "-rounds", "3", "-quorum", "2", "-linger", "5s"}, ""},
		{[]string{"-role", "shard", "-id", "1", "-workers", "4", "-shards", "2", "-shard-of", "http://127.0.0.1:7070"}, ""},
		{[]string{"-role", "root", "-checkpoint", "d"}, "checkpoint"},
		{[]string{"-role", "root", "-async"}, "async"},
		{[]string{"-role", "coordinator", "-shards", "2"}, "shards"},
		{[]string{"-role", "coordinator", "-audit"}, "audit"},
		{[]string{"-role", "worker", "-rounds", "5"}, "rounds"},
		{[]string{"-role", "worker", "-shard-of", "http://127.0.0.1:7070"}, "shard-of"},
		{[]string{"-role", "shard", "-listen", ":7070"}, "listen"},
		{[]string{"-role", "shard", "-quorum", "2"}, "quorum"},
		{[]string{"-workers", "2"}, "role"},
		{[]string{"-role", "server"}, "role"},
	} {
		fs := parseArgs(t, tc.args)
		err := checkRoleFlags(fs, fs.Lookup("role").Value.String())
		switch {
		case tc.reject == "" && err != nil:
			t.Errorf("%v rejected: %v", tc.args, err)
		case tc.reject != "" && (err == nil || !strings.Contains(err.Error(), "-"+tc.reject)):
			t.Errorf("%v: error %v, want one naming -%s", tc.args, err, tc.reject)
		}
	}
}

// TestCheckFlagValues: a numeric flag no run can use is refused at
// startup, naming the flag, instead of running no round or failing deep
// inside setup.
func TestCheckFlagValues(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		reject string // the flag named in the error; "" = accepted
	}{
		{[]string{"-role", "coordinator"}, ""},
		{[]string{"-role", "coordinator", "-workers", "1", "-samples", "1", "-servers", "1", "-rounds", "1", "-eval", "0", "-quorum", "1", "-checkpoint-every", "1"}, ""},
		{[]string{"-role", "root", "-workers", "4", "-quorum", "4"}, ""},
		{[]string{"-role", "coordinator", "-rounds", "0"}, "rounds"},
		{[]string{"-role", "root", "-rounds", "-3"}, "rounds"},
		{[]string{"-role", "coordinator", "-eval", "-1"}, "eval"},
		{[]string{"-role", "worker", "-workers", "0"}, "workers"},
		{[]string{"-role", "shard", "-samples", "0"}, "samples"},
		{[]string{"-role", "coordinator", "-servers", "0"}, "servers"},
		{[]string{"-role", "coordinator", "-quorum", "9", "-workers", "2"}, "quorum"},
		{[]string{"-role", "root", "-quorum", "-1"}, "quorum"},
		{[]string{"-role", "coordinator", "-checkpoint", "d", "-checkpoint-every", "0"}, "checkpoint-every"},
	} {
		fs := parseArgs(t, tc.args)
		if err := checkRoleFlags(fs, fs.Lookup("role").Value.String()); err != nil {
			t.Fatalf("%v: role check: %v", tc.args, err)
		}
		err := checkFlagValues()
		switch {
		case tc.reject == "" && err != nil:
			t.Errorf("%v rejected: %v", tc.args, err)
		case tc.reject != "" && (err == nil || !strings.Contains(err.Error(), "-"+tc.reject+" ")):
			t.Errorf("%v: error %v, want one naming -%s", tc.args, err, tc.reject)
		}
	}
}

// TestEveryFlagHasARole: a flag no role reads could never be set.
func TestEveryFlagHasARole(t *testing.T) {
	flag.VisitAll(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "test.") || slices.Contains(sharedFlags, f.Name) {
			return
		}
		for _, reads := range roleFlags {
			if slices.Contains(reads, f.Name) {
				return
			}
		}
		t.Errorf("-%s is read by no role", f.Name)
	})
}

// TestAsyncQuorumRefused: every async window commits, so a coordinator
// asked for both -async and -quorum fails at startup instead of ignoring
// the quorum. The context is already cancelled, so a coordinator that
// got as far as serving returns at once instead of waiting for workers.
func TestAsyncQuorumRefused(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	recipe := transport.Recipe{Seed: 1, Workers: 4, SamplesPerWorker: 20}
	err := runCoordinator(ctx, recipe, serveOpts{
		Listen: "127.0.0.1:0", Rounds: 1, Servers: 1, Quorum: 4, WorkerTimeout: time.Second, CheckpointEvery: 1, Async: true,
	})
	if err == nil || !strings.Contains(err.Error(), "quorum") {
		t.Fatalf("-async -quorum 4: error %v, want one naming the quorum", err)
	}
}
