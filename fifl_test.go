package fifl

import (
	"context"
	"go/parser"
	"go/token"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fifl/internal/attack"
)

// TestPublicAPIEndToEnd drives the whole system exactly as the README's
// quickstart does: build a federation with one attacker through the public
// facade, run FIFL rounds, and check the headline guarantees — the
// attacker is detected, loses reputation and is punished, while the model
// improves and the audit ledger stays verifiable.
func TestPublicAPIEndToEnd(t *testing.T) {
	const (
		nWorkers = 5
		rounds   = 15
		seed     = 4242
	)
	src := NewRNG(seed)
	build := NewMLP(seed, 28*28, []int{32}, 10)
	local := LocalConfig{K: 1, BatchSize: 96, LR: 0.05}

	train := SynthDigits(src.Split("train"), nWorkers*200)
	test := SynthDigits(src.Split("test"), 200)
	parts := train.PartitionIID(src.Split("split"), nWorkers)

	workers := make([]Worker, nWorkers)
	for i := 0; i < nWorkers-1; i++ {
		workers[i] = NewHonestWorker(i, parts[i], build, local, src)
	}
	workers[nWorkers-1] = attack.NewSignFlipWorker(nWorkers-1, parts[nWorkers-1], build, local, src, 4)

	engine, err := NewEngine(EngineConfig{Servers: 2, GlobalLR: 0.05}, build, workers, src)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		Detection:      Detector{Threshold: 0.02},
		Reputation:     DefaultReputationConfig(),
		Contribution:   ContributionConfig{BaselineWorker: -1},
		RewardPerRound: 1,
		RecordToLedger: true,
	}, engine, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}

	_, lossBefore := engine.Evaluate(test, 128)
	attackerRejections := 0
	for round := 0; round < rounds; round++ {
		report, err := coord.RunRoundContext(context.Background(), round)
		if err != nil {
			t.Fatal(err)
		}
		if !report.Detection.Accept[nWorkers-1] && !report.Detection.Uncertain[nWorkers-1] {
			attackerRejections++
		}
	}
	_, lossAfter := engine.Evaluate(test, 128)

	if lossAfter >= lossBefore {
		t.Fatalf("training did not improve under defense: %v -> %v", lossBefore, lossAfter)
	}
	if attackerRejections < rounds*8/10 {
		t.Fatalf("attacker rejected only %d/%d rounds", attackerRejections, rounds)
	}
	if rep := coord.Rep.Reputation(nWorkers - 1); rep > 0.2 {
		t.Fatalf("attacker reputation %v, want near 0", rep)
	}
	cum := coord.CumulativeRewards()
	if cum[nWorkers-1] >= 0 {
		t.Fatalf("attacker cumulative reward %v, want negative", cum[nWorkers-1])
	}
	if err := coord.Ledger.Verify(); err != nil {
		t.Fatalf("ledger verification failed: %v", err)
	}
	if coord.Ledger.Len() == 0 {
		t.Fatal("ledger empty despite RecordToLedger")
	}
}

// TestSelectInitialServersFacade checks the §4.5 initial election helper.
func TestSelectInitialServersFacade(t *testing.T) {
	servers := SelectInitialServers([]float64{0.2, 0.9, 0.6}, 2)
	if len(servers) != 2 || servers[0] != 1 || servers[1] != 2 {
		t.Fatalf("servers = %v", servers)
	}
}

// TestTransportFacade runs a miniature networked federation entirely
// through the facade: NewTransportHub + ServeCoordinator on one side,
// DialWorker on the other, loopback HTTP in between.
func TestTransportFacade(t *testing.T) {
	recipe := FederationRecipe{Seed: 21, Workers: 2, SamplesPerWorker: 40}
	build, err := recipe.Builder()
	if err != nil {
		t.Fatal(err)
	}
	hub, err := NewTransportHub(2)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := NewEngine(EngineConfig{Servers: 1, GlobalLR: 0.05}, build, hub.Workers(),
		NewRNG(recipe.Seed).Split("facade"), WithWorkerTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		Detection:      Detector{Threshold: 0.02},
		Reputation:     DefaultReputationConfig(),
		Contribution:   ContributionConfig{BaselineWorker: -1},
		RewardPerRound: 1,
		RecordToLedger: true,
	}, engine, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeCoordinator(coord, hub)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	var audited int
	for i := 0; i < 2; i++ {
		w, err := recipe.Worker(i)
		if err != nil {
			t.Fatal(err)
		}
		client, err := DialWorker(ctx, WorkerClientConfig{BaseURL: ts.URL, Worker: w, PollWait: 500 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, c *WorkerClient) {
			defer wg.Done()
			if _, err := c.Run(ctx); err != nil {
				t.Errorf("client %d: %v", i, err)
			}
		}(i, client)
		if i == 0 {
			defer func(c *WorkerClient) {
				blocks, err := c.VerifyLedger(context.Background())
				if err != nil {
					t.Errorf("ledger audit: %v", err)
				}
				audited = blocks
				if audited == 0 {
					t.Error("audited ledger is empty")
				}
			}(client)
		}
	}
	if err := srv.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	rep, err := srv.RunRound(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Committed {
		t.Fatal("loopback round failed to commit")
	}
	for i, s := range rep.Statuses {
		if s != UploadOK {
			t.Fatalf("worker %d status %v", i, s)
		}
	}
	srv.MarkDone()
	wg.Wait()
}

// TestNoDeprecatedAPI keeps the shipped tree free of deprecated aliases:
// an old spelling is deleted, not kept beside its replacement. It parses
// every non-test Go file of the module (nested modules such as bench/
// excluded) and fails on any comment carrying a "Deprecated:" marker.
func TestNoDeprecatedAPI(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			if strings.Contains(cg.Text(), "Deprecated:") {
				t.Errorf("%s: deprecated API left in the shipped tree", fset.Position(cg.Pos()))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
