package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"fifl/internal/cli"
	"fifl/internal/fl"
	"fifl/internal/persist"
	"fifl/internal/rng"
)

// runMainEnv makes the test binary run fifl-node's main instead of the
// tests, so runNode can drive the command end to end, exit code included.
const runMainEnv = "FIFL_NODE_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runNode runs fifl-node with args in a child process and returns its
// stdout, stderr and exit code. A child still running after a few seconds
// is killed, so a flag that is not refused fails the test instead of
// leaving a coordinator waiting for workers.
func runNode(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

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

// TestCheckFlagValues: a value of one of fifl-node's own flags that the
// role cannot run with is refused at startup, naming the flag, instead of
// being ignored or failing once the node is built. The shared federation
// flags' rules are internal/cli's (TestCheck there).
func TestCheckFlagValues(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		reject string // the flag named in the error; "" = accepted
	}{
		{[]string{"-role", "coordinator"}, ""},
		{[]string{"-role", "coordinator", "-checkpoint", "d", "-halt-after", "0"}, ""},
		{[]string{"-role", "coordinator", "-async", "-advance-interval", "2s"}, ""},
		{[]string{"-role", "root", "-workers", "4", "-shards", "2", "-quorum", "4"}, ""},
		{[]string{"-role", "shard", "-workers", "4", "-shards", "2", "-id", "1"}, ""},
		{[]string{"-role", "worker", "-workers", "3", "-id", "2"}, ""},
		{[]string{"-role", "worker", "-workers", "3", "-join", "-id", "7"}, ""},
		{[]string{"-role", "coordinator", "-checkpoint", "d", "-halt-after", "-1"}, "halt-after"},
		{[]string{"-role", "coordinator", "-advance-interval", "2s"}, "advance-interval"},
		{[]string{"-role", "root", "-workers", "4"}, "shards"},
		{[]string{"-role", "shard", "-workers", "4", "-shards", "0"}, "shards"},
		{[]string{"-role", "shard", "-workers", "4", "-shards", "2", "-id", "2"}, "id"},
		{[]string{"-role", "shard", "-workers", "4", "-shards", "2", "-id", "-1"}, "id"},
		{[]string{"-role", "worker", "-workers", "2", "-id", "2"}, "id"},
		{[]string{"-role", "worker", "-id", "-1"}, "id"},
	} {
		fs := parseArgs(t, tc.args)
		if err := checkRoleFlags(fs, fs.Lookup("role").Value.String()); err != nil {
			t.Fatalf("%v: role check: %v", tc.args, err)
		}
		err := checkFlagValues(fs)
		switch {
		case tc.reject == "" && err != nil:
			t.Errorf("%v rejected: %v", tc.args, err)
		case tc.reject != "" && (err == nil || !strings.Contains(err.Error(), "-"+tc.reject+" ")):
			t.Errorf("%v: error %v, want one naming -%s", tc.args, err, tc.reject)
		}
	}
}

// TestSharedFlagsExitTwo: fifl-node applies internal/cli's rules to the
// shared federation flags, exiting 2 with a message naming the flag
// before it builds anything or listens.
func TestSharedFlagsExitTwo(t *testing.T) {
	coordinator := []string{"-role", "coordinator", "-listen", "127.0.0.1:0", "-rounds", "1", "-samples", "20"}
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{append(coordinator, "-max-staleness", "3"), "-max-staleness"},
		{append(coordinator, "-async", "-max-staleness", "-1"), "-max-staleness"},
		{append(coordinator, "-async", "-quorum", "2"), "-quorum"},
		{append(coordinator, "-workers", "3", "-async", "-advance-every", "9"), "-advance-every"},
		{append(coordinator, "-sy", "NaN"), "-sy"},
		{[]string{"-role", "worker", "-compression", "bogus", "-coordinator", "http://127.0.0.1:1"}, "-compression"},
	} {
		stdout, stderr, code := runNode(t, tc.args...)
		if code != 2 || !strings.HasPrefix(stderr, "fifl-node: "+tc.flag) || stdout != "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2, no output and a fifl-node: message naming %s", tc.args, code, stdout, stderr, tc.flag)
		}
	}
}

// TestEveryFlagHasARole: a flag no role reads could never be set. The
// flags internal/cli registers are checked on their own set too, so one
// added there must be given a role here.
func TestEveryFlagHasARole(t *testing.T) {
	hasRole := func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "test.") || slices.Contains(sharedFlags, f.Name) {
			return
		}
		for _, reads := range roleFlags {
			if slices.Contains(reads, f.Name) {
				return
			}
		}
		t.Errorf("-%s is read by no role", f.Name)
	}
	flag.VisitAll(hasRole)
	shared := flag.NewFlagSet("cli", flag.ContinueOnError)
	cli.Register(shared, cli.Defaults{})
	shared.VisitAll(hasRole)
}

// TestAsyncQuorumRefused: every async window commits, so a coordinator
// asked for both -async and -quorum fails at startup instead of ignoring
// the quorum. The context is already cancelled, so a coordinator that
// got as far as serving returns at once instead of waiting for workers.
func TestAsyncQuorumRefused(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := runCoordinator(ctx, cli.Config{
		Seed: 1, Workers: 4, Samples: 20, Rounds: 1, Servers: 1, Quorum: 4, CheckpointEvery: 1,
		Async: true, MaxStaleness: 2, AdvanceEvery: 2,
	}, serveOpts{Listen: "127.0.0.1:0", WorkerTimeout: time.Second})
	if err == nil || !strings.Contains(err.Error(), "quorum") {
		t.Fatalf("-async -quorum 4: error %v, want one naming the quorum", err)
	}
}

// TestResumeWithOtherServersExitsTwo: a coordinator asked to resume a
// checkpoint under a different -servers exits 2 naming the flag, before
// it builds the federation or listens.
func TestResumeWithOtherServersExitsTwo(t *testing.T) {
	c := cli.Config{Seed: 3, Workers: 4, Samples: 40, Servers: 4, Sy: 0.02}
	recipe := recipeFor(c)
	build, err := recipe.Builder()
	if err != nil {
		t.Fatal(err)
	}
	workers := make([]fl.Worker, c.Workers)
	for i := range workers {
		if workers[i], err = recipe.Worker(i); err != nil {
			t.Fatal(err)
		}
	}
	engine, err := fl.NewEngine(fl.Config{Servers: c.Servers, GlobalLR: 0.05}, build, workers, rng.New(c.Seed).Split("netfed"))
	if err != nil {
		t.Fatal(err)
	}
	coord, err := newCoordinator(c, engine)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.RunRoundContext(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	snap, err := coord.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := persist.WriteFile(filepath.Join(dir, "checkpoint.fifl"), snap); err != nil {
		t.Fatal(err)
	}
	_, stderr, code := runNode(t, "-role", "coordinator", "-seed", "3", "-workers", "4", "-samples", "40",
		"-rounds", "4", "-servers", "2", "-checkpoint", dir, "-listen", "127.0.0.1:0")
	if code != 2 || !strings.Contains(stderr, "-servers") {
		t.Fatalf("resume with -servers 2 over a 4-server checkpoint: exit %d, stderr %q; want exit 2 naming -servers", code, stderr)
	}
}
