// Package cli holds the federation flags that fifl-sim and fifl-node
// share: each is declared once, with one help text, and checked by one
// rule set, so a run starts under the same rules whichever command
// starts it. Each command passes its own defaults for the sizes, the
// detection threshold and -eval, and keeps the flags only it reads.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"

	"fifl/internal/persist"
	"fifl/internal/transport/codec"
)

// Config holds the shared federation flags. Register declares them and
// Check validates them after the command line is parsed.
type Config struct {
	Seed            uint64
	Workers         int // federation size N
	Samples         int // local samples per worker
	Rounds          int
	Servers         int // server cluster size M
	Quorum          int // minimum arrivals for a round to commit; 0 = none
	Sy              float64
	Eval            int // see Evaluates
	CheckpointEvery int
	Async           bool
	MaxStaleness    int
	AdvanceEvery    int // with Async, Check resolves 0 to max(1, Workers/2)
	Shards          int // edge-aggregator cohorts; 0 = flat
	Compression     codec.Compression

	compression string // the -compression spelling Check parses
}

// Defaults are the shared flags whose defaults differ between commands.
type Defaults struct {
	Workers, Samples, Rounds, Servers int
	Sy                                float64
	Eval                              int
}

// Register declares the shared flags on fs with the command's defaults d
// and returns the Config that parsing fs fills in.
func Register(fs *flag.FlagSet, d Defaults) *Config {
	c := new(Config)
	fs.Uint64Var(&c.Seed, "seed", 1, "root seed of every data, model and training stream (the same on every node)")
	fs.IntVar(&c.Workers, "workers", d.Workers, "federation size N (the same on every node)")
	fs.IntVar(&c.Samples, "samples", d.Samples, "local samples per worker (the same on every node)")
	fs.IntVar(&c.Rounds, "rounds", d.Rounds, "communication iterations")
	fs.IntVar(&c.Servers, "servers", d.Servers, "server cluster size M")
	fs.IntVar(&c.Quorum, "quorum", 0, "minimum arrivals for a round to commit (0 = no quorum; synchronous rounds only)")
	fs.Float64Var(&c.Sy, "sy", d.Sy, "detection threshold S_y")
	fs.IntVar(&c.Eval, "eval", d.Eval, "evaluate the global model after each round that is a multiple of this, and after the final round (0 = the final round only)")
	fs.IntVar(&c.CheckpointEvery, "checkpoint-every", 1, "checkpoint every this many rounds (with -checkpoint)")
	fs.BoolVar(&c.Async, "async", false, "asynchronous rounds: each advance folds the uploads that arrived with bounded-staleness weights instead of the collect-all barrier")
	fs.IntVar(&c.MaxStaleness, "max-staleness", 2, "async staleness bound: uploads trained against a model more than this many advances old are rejected and penalized")
	fs.IntVar(&c.AdvanceEvery, "advance-every", 0, "async count cadence: uploads folded per advance (0 = workers/2, min 1)")
	fs.IntVar(&c.Shards, "shards", 0, "hierarchical mode: partition the workers into this many edge-aggregator cohorts under one root coordinator (0 = flat; the same on every node)")
	fs.StringVar(&c.compression, "compression", "none", "wire compression for gradient uploads and model downloads: none, f32, topk, int8 or int16")
	return c
}

// Check validates the flags fs parsed into c and returns an error that
// starts with the offending flag's name. asyncOnly names the command's
// own flags that, like -max-staleness and -advance-every, are refused
// when set without -async. Check also parses -compression and, with
// -async, resolves -advance-every 0.
func (c *Config) Check(fs *flag.FlagSet, asyncOnly ...string) error {
	mode, err := codec.ParseCompression(c.compression)
	if err != nil {
		return fmt.Errorf("-compression: %w", err)
	}
	c.Compression = mode
	for _, f := range []struct {
		name string
		v    int
	}{{"workers", c.Workers}, {"samples", c.Samples}, {"servers", c.Servers}, {"rounds", c.Rounds}, {"checkpoint-every", c.CheckpointEvery}} {
		if f.v < 1 {
			return fmt.Errorf("-%s must be at least 1, got %d", f.name, f.v)
		}
	}
	switch {
	case c.Eval < 0:
		return fmt.Errorf("-eval must be non-negative, got %d", c.Eval)
	case c.Quorum < 0 || c.Quorum > c.Workers:
		return fmt.Errorf("-quorum must be in [0,%d] (at most -workers), got %d", c.Workers, c.Quorum)
	case c.Shards < 0 || c.Shards > c.Workers:
		return fmt.Errorf("-shards must be in [0,%d] (at most -workers), got %d", c.Workers, c.Shards)
	case math.IsNaN(c.Sy):
		return errors.New("-sy must be a number, got NaN")
	}
	if c.Async {
		switch {
		case c.Quorum > 0:
			return errors.New("-quorum is a synchronous option: every -async window commits")
		case c.MaxStaleness < 0:
			return fmt.Errorf("-max-staleness must be non-negative, got %d", c.MaxStaleness)
		case c.AdvanceEvery < 0 || c.AdvanceEvery > c.Workers:
			return fmt.Errorf("-advance-every must be in [0,%d] (at most -workers), got %d", c.Workers, c.AdvanceEvery)
		case c.AdvanceEvery == 0:
			c.AdvanceEvery = max(1, c.Workers/2)
		}
		return nil
	}
	fs.Visit(func(f *flag.Flag) {
		if err == nil && (f.Name == "max-staleness" || f.Name == "advance-every" || slices.Contains(asyncOnly, f.Name)) {
			err = fmt.Errorf("-%s applies only with -async", f.Name)
		}
	})
	return err
}

// Evaluates reports whether the global model is evaluated after round t:
// after every round that is a multiple of -eval, and always after the
// final round, so -eval 0 evaluates the final round only.
func (c *Config) Evaluates(t int) bool {
	return (c.Eval > 0 && t%c.Eval == 0) || t == c.Rounds-1
}

// ReadCheckpoint reads the checkpoint at path for a resume. It returns
// nil and no error when path is empty or holds no file yet: the run then
// starts at round 0 and writes the checkpoint there.
func ReadCheckpoint(path string) (*persist.Snapshot, error) {
	if path == "" {
		return nil, nil
	}
	snap, err := persist.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("reading checkpoint %s: %w", path, err)
	}
	return snap, nil
}

// CheckResume refuses to resume snap under flags the checkpoint cannot
// run with, with an error that starts with the flag's name, like Check's:
// today the server cluster size, which the checkpoint fixes. A nil snap
// (a fresh run) passes. The restore keeps its own check; this one lets a
// command refuse the flag before it builds anything.
func (c *Config) CheckResume(snap *persist.Snapshot) error {
	if snap != nil && len(snap.Servers) != c.Servers {
		return fmt.Errorf("-servers must match the checkpoint's %d servers, got %d", len(snap.Servers), c.Servers)
	}
	return nil
}
