// Command fifl-score is the offline analytics companion to fifl-sim: it
// streams an audit-chain export — a binary export file, the ledger inside
// a durable checkpoint, or a live coordinator's /v1/ledger — folds every
// worker's raw trail into signals, audits the recorded rewards against the
// recomputed mechanism, and writes a deterministic ranked CSV plus a
// federation fairness report.
//
// Usage:
//
//	fifl-score ledger.bin
//	fifl-score -checkpoint run.ckpt -out scored.csv
//	fifl-score -url http://127.0.0.1:7070 -follow -poll 2s
//	fifl-score -url http://127.0.0.1:7070 -metrics
//	fifl-score -metrics-file metrics.prom ledger.bin
//	fifl-sim -rounds 30 -checkpoint run.ckpt && fifl-score -checkpoint run.ckpt
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fifl/internal/chain"
	"fifl/internal/persist"
	"fifl/internal/score"
	"fifl/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "fifl-score: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		ckptFile   = flag.String("checkpoint", "", "score the ledger embedded in this fifl-sim checkpoint file")
		baseURL    = flag.String("url", "", "score a live coordinator's ledger at this base URL (e.g. http://127.0.0.1:7070)")
		from       = flag.Int("from", 0, "with -url: first block index to fetch")
		follow     = flag.Bool("follow", false, "with -url: keep polling for new blocks, rescoring after each fetch")
		poll       = flag.Duration("poll", 2*time.Second, "with -follow: interval between fetches")
		configFile = flag.String("config", "", "scoring configuration file (default: the built-in configuration)")
		metricFile = flag.String("metrics-file", "", "overlay a saved Prometheus exposition (a /v1/metrics dump) onto the latency.* fields")
		liveMetric = flag.Bool("metrics", false, "with -url: fetch the coordinator's live /v1/metrics before each rescore and overlay it onto the latency.* fields")
		outFile    = flag.String("out", "", "write the ranked CSV to this file (default: stdout)")
		reportFile = flag.String("report", "", "write the federation report to this file (default: stderr)")
		tol        = flag.Float64("tol", 1e-9, "reward audit tolerance: recorded vs recomputed disagreement beyond this flags the round")
		verify     = flag.Bool("verify", false, "verify the chain's hashes and seals before folding")
		dumpConf   = flag.Bool("print-config", false, "print the built-in scoring configuration and exit")
		listFields = flag.Bool("fields", false, "list every scoreable field and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: fifl-score [flags] [LEDGER_FILE|-]\n\nScores one ledger source: a chain export file ('-' = stdin), -checkpoint, or -url.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *dumpConf {
		fmt.Print(score.DefaultConfigText)
		return nil
	}
	if *listFields {
		for _, f := range score.Fields {
			fmt.Printf("%-36s %s\n", f.Name, f.Doc)
		}
		return nil
	}

	alg := score.DefaultAlgorithm()
	if *configFile != "" {
		f, err := os.Open(*configFile)
		if err != nil {
			return err
		}
		alg, err = score.ParseConfig(f)
		f.Close()
		if err != nil {
			return err
		}
	}

	sources := 0
	for _, set := range []bool{flag.NArg() > 0, *ckptFile != "", *baseURL != ""} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		flag.Usage()
		return fmt.Errorf("exactly one ledger source required: a file argument, -checkpoint, or -url")
	}
	if flag.NArg() > 1 {
		return fmt.Errorf("at most one ledger file, got %d", flag.NArg())
	}
	if (*follow || *from != 0) && *baseURL == "" {
		return fmt.Errorf("-follow and -from need -url")
	}
	if *liveMetric && *baseURL == "" {
		return fmt.Errorf("-metrics needs -url")
	}
	if *liveMetric && *metricFile != "" {
		return fmt.Errorf("-metrics and -metrics-file are mutually exclusive")
	}

	var view score.MetricsView
	if *metricFile != "" {
		f, err := os.Open(*metricFile)
		if err != nil {
			return err
		}
		view, err = score.ParseMetrics(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("parsing %s: %w", *metricFile, err)
		}
	}

	cfg := score.Config{Tolerance: *tol}

	if *baseURL != "" {
		return scoreLive(*baseURL, *from, *follow, *poll, *verify, *liveMetric, view, cfg, alg, *outFile, *reportFile)
	}

	var export []byte
	switch {
	case *ckptFile != "":
		snap, err := persist.ReadFile(*ckptFile)
		if err != nil {
			return fmt.Errorf("reading checkpoint %s: %w", *ckptFile, err)
		}
		if len(snap.Ledger) == 0 {
			return fmt.Errorf("checkpoint %s carries no ledger (run fifl-sim with RecordToLedger)", *ckptFile)
		}
		export = snap.Ledger
	case flag.Arg(0) == "-":
		b, err := io.ReadAll(os.Stdin)
		if err != nil {
			return fmt.Errorf("reading stdin: %w", err)
		}
		export = b
	default:
		// The file path streams without materializing: a million-record
		// ledger never lands in memory.
		return scoreFile(flag.Arg(0), *verify, view, cfg, alg, *outFile, *reportFile)
	}
	if *verify {
		if _, err := chain.VerifyFrom(bytes.NewReader(export)); err != nil {
			return fmt.Errorf("ledger verification failed: %w", err)
		}
	}
	c := score.NewCollector(cfg)
	if err := c.FromStream(bytes.NewReader(export)); err != nil {
		return err
	}
	set, rep := c.Finalize()
	if view != nil {
		set.ApplyMetrics(view)
	}
	return emit(set, rep, alg, *outFile, *reportFile)
}

// scoreFile folds a chain export file record by record — constant memory
// in the chain length.
func scoreFile(path string, verify bool, view score.MetricsView, cfg score.Config, alg *score.Algorithm, outFile, reportFile string) error {
	if verify {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		_, err = chain.VerifyFrom(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("ledger verification failed: %w", err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	c := score.NewCollector(cfg)
	if err := c.FromStream(f); err != nil {
		return err
	}
	set, rep := c.Finalize()
	if view != nil {
		set.ApplyMetrics(view)
	}
	return emit(set, rep, alg, outFile, reportFile)
}

// maxFollowErrors is how many consecutive failed fetches follow mode rides
// through before giving up: a coordinator restart or network blip must not
// kill a long-lived follower, but a coordinator that is actually gone
// should not be polled forever.
const maxFollowErrors = 5

// scoreLive fetches a coordinator's ledger over HTTP — incrementally when
// following — and rescores after each fetch until interrupted. In follow
// mode transient fetch errors are logged and retried on the poll cadence;
// only cancellation or maxFollowErrors consecutive failures end the loop.
// With liveMetrics the coordinator's /v1/metrics is re-fetched alongside
// each ledger fetch and overlaid onto the latency fields; a fixed view
// (from -metrics-file) is overlaid as-is instead.
func scoreLive(baseURL string, from int, follow bool, poll time.Duration, verify, liveMetrics bool, view score.MetricsView, cfg score.Config, alg *score.Algorithm, outFile, reportFile string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	c := score.NewCollector(cfg)
	next := from
	failures := 0
	for {
		export, err := transport.FetchLedger(ctx, baseURL, next, 0)
		if err == nil && liveMetrics {
			var raw []byte
			if raw, err = transport.FetchMetrics(ctx, baseURL); err == nil {
				view, err = score.ParseMetrics(bytes.NewReader(raw))
			}
		}
		if err != nil {
			if !follow || ctx.Err() != nil {
				return err
			}
			failures++
			if failures >= maxFollowErrors {
				return fmt.Errorf("giving up after %d consecutive fetch failures, last: %w", failures, err)
			}
			fmt.Fprintf(os.Stderr, "fifl-score: fetch failed (%d/%d consecutive), retrying in %v: %v\n",
				failures, maxFollowErrors, poll, err)
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(poll):
			}
			continue
		}
		failures = 0
		if verify && next == 0 {
			if _, err := chain.VerifyFrom(bytes.NewReader(export)); err != nil {
				return fmt.Errorf("ledger verification failed: %w", err)
			}
		}
		got := 0
		err = chain.StreamBinary(bytes.NewReader(export), func(b chain.Block) error {
			got++
			return c.AddBlock(b)
		})
		if err != nil {
			return err
		}
		next += got
		set, rep := c.Snapshot()
		if view != nil {
			set.ApplyMetrics(view)
		}
		if err := emit(set, rep, alg, outFile, reportFile); err != nil {
			return err
		}
		if !follow {
			return nil
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(poll):
		}
	}
}

// emit writes the ranked CSV and the federation report to their sinks.
// Files are rewritten whole each call so follow mode always leaves a
// complete, current pair on disk.
func emit(set *score.SignalSet, rep *score.Report, alg *score.Algorithm, outFile, reportFile string) error {
	if err := writeTo(outFile, os.Stdout, func(w io.Writer) error {
		return score.WriteCSV(w, set, alg)
	}); err != nil {
		return err
	}
	return writeTo(reportFile, os.Stderr, func(w io.Writer) error {
		return rep.WriteText(w)
	})
}

// writeTo runs fn against the named file (created/truncated) or the
// fallback stream when path is empty.
func writeTo(path string, fallback io.Writer, fn func(io.Writer) error) error {
	if path == "" {
		return fn(fallback)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
