package cli

import (
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"fifl/internal/transport/codec"
)

// parse registers the shared flags with fifl-sim's defaults on a fresh
// FlagSet, parses args and checks them.
func parse(t *testing.T, args ...string) (*Config, error) {
	t.Helper()
	fs := flag.NewFlagSet("cli", flag.ContinueOnError)
	c := Register(fs, Defaults{Workers: 10, Samples: 200, Rounds: 30, Servers: 4, Sy: 0.05, Eval: 5})
	fs.String("async-lag", "", "a command's own async-only flag")
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parsing %v: %v", args, err)
	}
	return c, c.Check(fs, "async-lag")
}

// TestCheck: every shared rule refuses its bad values with an error that
// starts with the flag's name, and lets the edge values through.
func TestCheck(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		reject string // the flag the error starts with; "" = accepted
	}{
		{nil, ""},
		{[]string{"-workers", "1", "-samples", "1", "-servers", "1", "-rounds", "1", "-eval", "0", "-quorum", "1", "-checkpoint-every", "1"}, ""},
		{[]string{"-workers", "3"}, ""}, // the default -servers 4 may exceed -workers
		{[]string{"-workers", "4", "-quorum", "4", "-shards", "4"}, ""},
		{[]string{"-sy", "-Inf"}, ""},
		{[]string{"-compression", "int8"}, ""},
		{[]string{"-async", "-max-staleness", "0", "-advance-every", "3", "-async-lag", "1:1"}, ""},
		{[]string{"-async", "-workers", "3", "-advance-every", "3"}, ""},
		{[]string{"-workers", "0"}, "workers"},
		{[]string{"-samples", "0"}, "samples"},
		{[]string{"-servers", "0"}, "servers"},
		{[]string{"-rounds", "0"}, "rounds"},
		{[]string{"-rounds", "-3"}, "rounds"},
		{[]string{"-checkpoint-every", "0"}, "checkpoint-every"},
		{[]string{"-eval", "-1"}, "eval"},
		{[]string{"-quorum", "-1"}, "quorum"},
		{[]string{"-workers", "2", "-quorum", "3"}, "quorum"},
		{[]string{"-shards", "-1"}, "shards"},
		{[]string{"-workers", "2", "-shards", "3"}, "shards"},
		{[]string{"-sy", "NaN"}, "sy"},
		{[]string{"-compression", "bogus"}, "compression"},
		{[]string{"-async", "-quorum", "1"}, "quorum"},
		{[]string{"-async", "-max-staleness", "-1"}, "max-staleness"},
		{[]string{"-async", "-advance-every", "-1"}, "advance-every"},
		{[]string{"-async", "-workers", "3", "-advance-every", "4"}, "advance-every"},
		{[]string{"-max-staleness", "3"}, "max-staleness"},
		{[]string{"-max-staleness", "2"}, "max-staleness"}, // set to its default is still set
		{[]string{"-advance-every", "2"}, "advance-every"},
		{[]string{"-async-lag", "1:1"}, "async-lag"},
	} {
		_, err := parse(t, tc.args...)
		switch {
		case tc.reject == "" && err != nil:
			t.Errorf("%v rejected: %v", tc.args, err)
		case tc.reject != "" && (err == nil || !strings.HasPrefix(err.Error(), "-"+tc.reject+" ") && !strings.HasPrefix(err.Error(), "-"+tc.reject+":")):
			t.Errorf("%v: error %v, want one starting with -%s", tc.args, err, tc.reject)
		}
	}
}

// TestCheckResolves: Check hands the commands a parsed -compression and,
// with -async, an -advance-every of max(1, workers/2) in place of 0.
func TestCheckResolves(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-async", "-workers", "9"}, 4},
		{[]string{"-async", "-workers", "1"}, 1},
		{[]string{"-async", "-workers", "9", "-advance-every", "7"}, 7},
		{[]string{"-workers", "9"}, 0},
	} {
		c, err := parse(t, tc.args...)
		if err != nil || c.AdvanceEvery != tc.want {
			t.Errorf("%v: -advance-every %d, error %v; want %d", tc.args, c.AdvanceEvery, err, tc.want)
		}
	}
	if c, err := parse(t, "-compression", "topk"); err != nil || c.Compression != codec.CompressionTopK {
		t.Errorf("-compression topk: %v, error %v", c.Compression, err)
	}
	if c, err := parse(t); err != nil || c.Compression != codec.CompressionNone {
		t.Errorf("default -compression: %v, error %v", c.Compression, err)
	}
}

// TestEvaluates: the model is evaluated after each round that is a
// multiple of -eval and after the final round. -eval 0 evaluates the
// final round only, in fifl-node too, which before evaluated nothing.
func TestEvaluates(t *testing.T) {
	for _, tc := range []struct {
		eval, rounds int
		want         []int
	}{
		{0, 5, []int{4}},
		{1, 5, []int{0, 1, 2, 3, 4}},
		{2, 5, []int{0, 2, 4}},
		{2, 6, []int{0, 2, 4, 5}},
		{5, 30, []int{0, 5, 10, 15, 20, 25, 29}},
		{7, 1, []int{0}},
	} {
		c := Config{Eval: tc.eval, Rounds: tc.rounds}
		var got []int
		for r := 0; r < tc.rounds; r++ {
			if c.Evaluates(r) {
				got = append(got, r)
			}
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("-eval %d -rounds %d evaluates rounds %v, want %v", tc.eval, tc.rounds, got, tc.want)
		}
	}
}

// TestRegisterDefaults: each command keeps its own defaults for the sizes,
// -sy and -eval; the rest are the same in both.
func TestRegisterDefaults(t *testing.T) {
	fs := flag.NewFlagSet("cli", flag.ContinueOnError)
	Register(fs, Defaults{Workers: 2, Samples: 120, Rounds: 5, Servers: 1, Sy: 0.02, Eval: 1})
	want := map[string]string{
		"seed": "1", "workers": "2", "samples": "120", "rounds": "5", "servers": "1", "quorum": "0",
		"sy": "0.02", "eval": "1", "checkpoint-every": "1", "async": "false", "max-staleness": "2",
		"advance-every": "0", "shards": "0", "compression": "none",
	}
	n := 0
	fs.VisitAll(func(f *flag.Flag) {
		n++
		if w, ok := want[f.Name]; !ok || f.DefValue != w {
			t.Errorf("-%s default %q, want %q", f.Name, f.DefValue, w)
		}
	})
	if n != len(want) {
		t.Errorf("%d flags registered, want %d", n, len(want))
	}
}

func TestReadCheckpoint(t *testing.T) {
	dir := t.TempDir()
	for _, path := range []string{"", filepath.Join(dir, "absent.fifl")} {
		if snap, err := ReadCheckpoint(path); snap != nil || err != nil {
			t.Errorf("ReadCheckpoint(%q) = %v, %v; want a cold start", path, snap, err)
		}
	}
	bad := filepath.Join(dir, "bad.fifl")
	if err := os.WriteFile(bad, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(bad); err == nil || !strings.Contains(err.Error(), bad) {
		t.Errorf("ReadCheckpoint of a corrupt file: error %v, want one naming %s", err, bad)
	}
}
