package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// runMainEnv makes the test binary run fifl-sim's main instead of the
// tests, so runSim can drive the command end to end, exit code included.
const runMainEnv = "FIFL_SIM_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSim runs fifl-sim with args in a child process and returns its
// stdout, stderr and exit code.
func runSim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
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

func TestParseChurnSpec(t *testing.T) {
	got, err := parseChurnSpec("5:leave:1, 3:join,5:rejoin:2,0:evict:4,3:leave:0")
	if err != nil {
		t.Fatal(err)
	}
	// Sorted by round; events of one round keep their input order.
	want := []churnEvent{
		{round: 0, op: "evict", id: 4},
		{round: 3, op: "join", id: -1},
		{round: 3, op: "leave", id: 0},
		{round: 5, op: "leave", id: 1},
		{round: 5, op: "rejoin", id: 2},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseChurnSpec = %v, want %v", got, want)
	}
	if got, err := parseChurnSpec(""); got != nil || err != nil {
		t.Fatalf(`parseChurnSpec("") = %v, %v; want no events`, got, err)
	}

	for _, tc := range []struct{ spec, reason string }{
		{"3", "bad event"},
		{"3:leave:1:2", "bad event"},
		{"x:join", "bad round"},
		{"-1:join", "bad round"},
		{"3:join:5", "assigns its own ID"},
		{"3:leave", "needs a worker ID"},
		{"3:rejoin", "needs a worker ID"},
		{"3:evict", "needs a worker ID"},
		{"3:leave:x", "bad worker ID"},
		{"3:evict:-2", "bad worker ID"},
		{"3:swap:1", "unknown op"},
		{"3:join,4:leave", "needs a worker ID"},
	} {
		if _, err := parseChurnSpec(tc.spec); err == nil || !strings.Contains(err.Error(), tc.reason) {
			t.Errorf("parseChurnSpec(%q): error %v, want one saying %q", tc.spec, err, tc.reason)
		}
	}
}

func TestParseLagSpec(t *testing.T) {
	got, err := parseLagSpec("3:1, 5:4", 6)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 0, 0, 1, 0, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("parseLagSpec = %v, want %v", got, want)
	}
	if got, err := parseLagSpec("", 3); err != nil || !reflect.DeepEqual(got, []int{0, 0, 0}) {
		t.Fatalf(`parseLagSpec("") = %v, %v; want every worker fresh`, got, err)
	}

	for _, tc := range []struct{ spec, reason string }{
		{"3", "bad pair"},
		{"a:1", "bad pair"},
		{"6:1", "out of range"},
		{"-1:1", "out of range"},
		{"2:-1", "negative lag"},
	} {
		if _, err := parseLagSpec(tc.spec, 6); err == nil || !strings.Contains(err.Error(), tc.reason) {
			t.Errorf("parseLagSpec(%q): error %v, want one saying %q", tc.spec, err, tc.reason)
		}
	}
}

// TestBadFlagsExitTwo: a flag value the run cannot use is reported as a
// usage error (exit 2, one "fifl-sim:" line), not a panic.
func TestBadFlagsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-samples", "0"},
		{"-servers", "0"},
		{"-eval", "-1"},
		{"-rounds", "0"},
		{"-rounds", "-2", "-audit"},
	} {
		_, stderr, code := runSim(t, append([]string{"-workers", "3", "-rounds", "1"}, args...)...)
		if code != 2 || !strings.HasPrefix(stderr, "fifl-sim: ") || strings.Contains(stderr, "panic") {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 with a fifl-sim: message", args, code, stderr)
		}
	}
}

// TestEvalZero: -eval 0 turns the periodic evaluation off and keeps the
// final round's.
func TestEvalZero(t *testing.T) {
	stdout, stderr, code := runSim(t, "-workers", "3", "-rounds", "3", "-samples", "40", "-eval", "0")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	var evaluated []string
	for _, line := range strings.Split(stdout, "\n") {
		if strings.HasPrefix(line, "round ") && strings.Contains(line, "acc=") {
			evaluated = append(evaluated, line)
		}
	}
	if len(evaluated) != 1 || !strings.HasPrefix(evaluated[0], "round   2") {
		t.Fatalf("evaluated rounds %q, want only round 2", evaluated)
	}
}

// TestCheckpointResumesChurnedRun: rerunning with an existing -checkpoint
// resumes from it and must end on the uninterrupted run's checkpoint,
// byte for byte. The split after round 5 resumes a cohort a joiner and a
// departure reshaped; the split after round 7 resumes one whose last
// slot holds a rejoined identity.
func TestCheckpointResumesChurnedRun(t *testing.T) {
	dir := t.TempDir()
	common := []string{"-workers", "5", "-samples", "60", "-seed", "11", "-eval", "0",
		"-churn", "3:join,5:leave:1,6:rejoin:1,7:evict:4"}
	sim := func(rounds, ckpt string) string {
		t.Helper()
		stdout, stderr, code := runSim(t, append(common, "-rounds", rounds, "-checkpoint", ckpt)...)
		if code != 0 {
			t.Fatalf("-rounds %s -checkpoint %s: exit %d: %s", rounds, ckpt, code, stderr)
		}
		return stdout
	}
	ref := filepath.Join(dir, "ref.ckpt")
	if out := sim("8", ref); strings.Contains(out, "resumed from") {
		t.Fatalf("a run without a checkpoint file resumed:\n%s", out)
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, split := range []string{"5", "7"} {
		ckpt := filepath.Join(dir, "split"+split+".ckpt")
		sim(split, ckpt)
		if out := sim("8", ckpt); !strings.Contains(out, "resumed from "+ckpt+" at round "+split) {
			t.Fatalf("split %s: the second run did not resume:\n%s", split, out)
		}
		got, err := os.ReadFile(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("split %s: resumed checkpoint differs from the uninterrupted run's", split)
		}
	}
}
