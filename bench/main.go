// Command bench is the repository's benchmark: five named workloads at
// fixed operation counts, end-to-end metrics from an untraced run and
// per-layer metrics from a traced one, with the correctness gate in the
// same command. BENCHMARK.json at the repository root names the metrics
// and their regression bounds; README.md is the glossary.
//
//	bash bench/run.sh                                   every workload, untraced
//	bash bench/run.sh --trace 1                         every workload, traced
//	bash bench/run.sh --workload deep-flat --seed 7     one workload in this process
//	bash bench/run.sh -aa                               the untraced set twice, compared
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process (default: each workload in a child process)")
		seed     = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Int("seconds", refSeconds, "nominal length of the timed phases; scales the fixed operation counts")
		trace    = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = untraced run reporting the end-to-end metrics")
		aa       = flag.Bool("aa", false, "run the untraced set twice on this build and compare the two")
		out      = flag.String("out", "bench/out", "directory the traced run writes its spans to")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "usage: bench [--workload name] [--seed n] [--seconds n] [--trace 0|1] [-aa]")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var err error
	switch {
	case *workload != "":
		err = runOne(ctx, *workload, *seed, *seconds, *trace == 1, *out)
	case *aa:
		err = runAA(ctx, *seed, *seconds)
	default:
		_, err = runSet(ctx, *seed, *seconds, *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// header prints what the numbers were measured on; every workload process
// starts its output with it.
func header(seed uint64) {
	fmt.Printf("nproc %d\nGOMAXPROCS %d\ngo %s\ncpu %s\nseed %d\ncommit %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), seed, gitCommit())
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func gitCommit() string {
	b, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// errIncorrect is returned when a workload ran but a check failed.
var errIncorrect = errors.New("a correctness check failed")

// runOne runs one workload in this process and prints its result as the
// last line of standard output.
func runOne(ctx context.Context, name string, seed uint64, seconds int, traced bool, out string) error {
	sp, err := specByName(name)
	if err != nil {
		return err
	}
	header(seed)
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	res, err := runWorkload(ctx, sp.scaled(seconds), seed, tr, out, os.Stdout)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// runSet runs every workload, each in its own child process so that heaps
// and peak RSS do not mix, and returns the results by workload name.
func runSet(ctx context.Context, seed uint64, seconds, trace int) (map[string]*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	results := map[string]*result{}
	var failed []string
	for _, sp := range specs {
		cmd := exec.CommandContext(ctx, self,
			"--workload", sp.name, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		var buf bytes.Buffer
		cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		res, err := parseResult(buf.Bytes())
		if err != nil {
			return nil, fmt.Errorf("%s: %w (child: %v)", sp.name, err, runErr)
		}
		results[sp.name] = res
		if runErr != nil || !res.Correct {
			failed = append(failed, sp.name)
		}
		fmt.Println()
	}
	if len(failed) > 0 {
		return results, fmt.Errorf("%w on %s", errIncorrect, strings.Join(failed, ", "))
	}
	return results, nil
}

// parseResult reads a child's output: the state digest line and the
// result object on the last line.
func parseResult(out []byte) (*result, error) {
	var last, digest string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if f := strings.Fields(line); len(f) == 3 && f[0] == "state_digest" {
			digest = f[2]
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	res := &result{}
	if err := json.Unmarshal([]byte(last), res); err != nil {
		return nil, fmt.Errorf("no result on the last line: %w", err)
	}
	res.digest = digest
	return res, nil
}

// benchmarkFile is the part of BENCHMARK.json the A/A mode needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runAA runs the untraced set twice on this build and fails if any
// end-to-end metric differs by more than its BENCHMARK.json bound or any
// state digest differs at the same seed.
func runAA(ctx context.Context, seed uint64, seconds int) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("A/A needs the bounds: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var sets [2]map[string]*result
	for i := range sets {
		fmt.Printf("=== A/A set %d of 2 ===\n", i+1)
		if sets[i], err = runSet(ctx, seed, seconds, 0); err != nil {
			return err
		}
	}
	fmt.Printf("=== A/A comparison ===\n%-14s %-26s %16s %16s %8s %8s\n", "workload", "metric", "first", "second", "gap", "bound")
	var over []string
	for _, sp := range specs {
		a, b := sets[0][sp.name], sets[1][sp.name]
		if a.digest != b.digest {
			over = append(over, sp.name+" state_digest")
		}
		for _, m := range bf.EndToEnd {
			va, vb := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
			gap := relGap(va, vb)
			mark := ""
			// setup_s is compared by medians of sets, not run against
			// run: one process start cannot hold a bound.
			if gap > m.Bound && m.Name != "setup_s" {
				mark = "  OVER"
				over = append(over, sp.name+" "+m.Name)
			}
			fmt.Printf("%-14s %-26s %16.6g %16.6g %7.2f%% %7.2f%%%s\n", sp.name, m.Name, va, vb, gap*100, m.Bound*100, mark)
		}
	}
	if len(over) > 0 {
		sort.Strings(over)
		return fmt.Errorf("A/A disagreement beyond the bound: %s", strings.Join(over, "; "))
	}
	fmt.Println("A/A: every end-to-end metric within its bound, every state digest identical")
	return nil
}
