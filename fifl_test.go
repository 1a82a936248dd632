package fifl

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"fifl/internal/attack"
	"fifl/internal/transport"
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

// TestTransportFacade runs a miniature networked federation entirely
// through the facade: NewTransportHub + ServeCoordinator on one side,
// DialWorker on the other, loopback HTTP in between.
func TestTransportFacade(t *testing.T) {
	recipe := transport.Recipe{Seed: 21, Workers: 2, SamplesPerWorker: 40}
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

// testOnlyExportAllowlist names exported functions and methods under
// internal/ that only tests reach by name but that stay, keyed by package
// directory, receiver type and name, each with its reason.
var testOnlyExportAllowlist = map[string]string{
	"internal/chain.Ledger.MarshalJSON":      "deleting it slowed the benchmark's query_us_p50 by 13-20 % (wide-toy, ledger-read) through code layout alone; it goes once Query's timing no longer moves with layout",
	"internal/metrics.Snapshot.CounterValue": "the tests of fl and transport read counters through it; a method cannot move into another package's tests",
	"internal/rng.countingSource.Int63":      "math/rand calls it through the rand.Source interface",
}

// TestNoTestOnlyExports keeps code that nothing ships out of the tree: an
// exported function or method under internal/ must be referenced by name
// from some non-test Go file of the repository — bench/ and examples/
// included — other than its own declaration. Otherwise only tests reach
// it, and it moves into its package's tests or goes. The match is by bare
// name, so it is conservative: a method named like any identifier used
// elsewhere (Load, String, Len) passes whatever its receiver.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct {
		key string
		pos token.Position
	}
	var decls []decl
	refs := map[string]int{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		internal := strings.HasPrefix(dir, "internal/")
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			// A declaration's own name, and its recursive calls, are not
			// references to it.
			self := ok && internal && fd.Name.IsExported()
			if self {
				key := dir + "." + fd.Name.Name
				if fd.Recv != nil {
					key = dir + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
				}
				decls = append(decls, decl{key, fset.Position(fd.Pos())})
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !(self && id.Name == fd.Name.Name) {
					refs[id.Name]++
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{}
	for _, d := range decls {
		name := d.key[strings.LastIndex(d.key, ".")+1:]
		if refs[name] > 0 {
			continue
		}
		if testOnlyExportAllowlist[d.key] != "" {
			allowed[d.key] = true
			continue
		}
		t.Errorf("%s: %s is reached only from tests", d.pos, d.key)
	}
	for key := range testOnlyExportAllowlist {
		if !allowed[key] {
			t.Errorf("allowlist entry %s names no test-only declaration; delete it", key)
		}
	}
}

// recvName returns the type name of a method receiver: T for T, *T, T[P]
// and *T[P].
func recvName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return ""
}

// TestFacadeMatchesDocs holds fifl.go to the names its documentation
// uses. Every fifl.X that README.md or an examples/*/main.go program
// names must be an exported declaration of fifl.go, and every exported
// declaration of fifl.go must be named there or appear in the signature
// of a declaration that is, so the facade and its docs cannot drift
// apart.
func TestFacadeMatchesDocs(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fifl.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	// sigs maps each exported declaration to the node holding its
	// signature: a function's type, a type's definition, a value's type.
	sigs := map[string]ast.Node{}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				sigs[d.Name.Name] = d.Type
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					if spec.Name.IsExported() {
						sigs[spec.Name.Name] = spec.Type
					}
				case *ast.ValueSpec:
					for _, name := range spec.Names {
						if name.IsExported() {
							sigs[name.Name] = spec.Type
						}
					}
				}
			}
		}
	}

	docs, err := filepath.Glob("examples/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, "README.md")
	named := regexp.MustCompile(`\bfifl\.([A-Z][A-Za-z0-9_]*)`)
	var keep []string
	for _, path := range docs {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range named.FindAllSubmatch(b, -1) {
			name := string(m[1])
			if _, ok := sigs[name]; !ok {
				t.Errorf("%s names fifl.%s, which fifl.go does not declare", path, name)
				continue
			}
			keep = append(keep, name)
		}
	}

	// Close the named set over signatures: a kept declaration keeps every
	// facade name its signature mentions.
	kept := map[string]bool{}
	for len(keep) > 0 {
		name := keep[len(keep)-1]
		keep = keep[:len(keep)-1]
		if kept[name] {
			continue
		}
		kept[name] = true
		if sigs[name] == nil {
			continue
		}
		ast.Inspect(sigs[name], func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				return false // a name of another package
			case *ast.Ident:
				if _, ok := sigs[n.Name]; ok && !kept[n.Name] {
					keep = append(keep, n.Name)
				}
			}
			return true
		})
	}
	names := make([]string, 0, len(sigs))
	for name := range sigs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !kept[name] {
			t.Errorf("fifl.go exports %s, which neither README.md, an example nor a documented signature uses", name)
		}
	}
}
