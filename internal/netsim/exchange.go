package netsim

import (
	"fmt"
	"sync"

	"fifl/internal/gradvec"
)

// sliceMsg is one gradient slice on the wire: worker → server.
type sliceMsg struct {
	worker int
	slice  gradvec.Vector
	weight float64
}

// globalMsg is one aggregated global slice on the wire: server → workers.
type globalMsg struct {
	server int
	slice  gradvec.Vector
}

// Exchange runs one complete polycentric communication round (§3.2 steps
// 1.2–1.5) with real goroutines and channels: every worker splits its
// gradient into M slices and sends slice j to server j; every server
// aggregates its slice across workers with the given weights and
// broadcasts the global slice; every worker recombines the M global slices
// into the full global gradient.
//
// It returns the recombined global gradient (identical for every worker,
// so one copy) and per-node traffic counters. Workers with a nil gradient
// (dropped uploads) send nothing; their weight is excluded from the
// normalization, matching fl.Engine.Aggregate. If no gradient survives the
// result is nil.
//
// The implementation is the protocol itself, not a discrete-event
// simulation: message passing is Go channels, parallelism is real. Its
// value is (a) validating that the wire protocol computes exactly the
// centralized aggregation, and (b) exercising the §3.2 data flow the
// analytic cost model describes.
func Exchange(grads []gradvec.Vector, weights []float64, m int) (gradvec.Vector, *Traffic) {
	if len(grads) != len(weights) {
		panic(fmt.Sprintf("netsim: %d gradients vs %d weights", len(grads), len(weights)))
	}
	if m <= 0 {
		panic("netsim: need at least one server")
	}
	dim := 0
	total := 0.0
	for i, g := range grads {
		if g == nil {
			continue
		}
		dim = len(g)
		total += weights[i]
	}
	traffic := newTraffic(len(grads), m)
	if dim == 0 || total == 0 {
		return nil, traffic
	}

	// One inbox per server, one broadcast fan-out to collect globals.
	inboxes := make([]chan sliceMsg, m)
	for j := range inboxes {
		inboxes[j] = make(chan sliceMsg, len(grads))
	}
	broadcast := make(chan globalMsg, m)

	// Workers: split and send (step 1.2–1.3).
	var workers sync.WaitGroup
	for i, g := range grads {
		if g == nil {
			continue
		}
		workers.Add(1)
		go func(i int, g gradvec.Vector) {
			defer workers.Done()
			slices := gradvec.Split(g, m)
			for j, s := range slices {
				inboxes[j] <- sliceMsg{worker: i, slice: s, weight: weights[i] / total}
				traffic.addWorkerUp(i, len(s))
			}
		}(i, g)
	}
	go func() {
		workers.Wait()
		for j := range inboxes {
			close(inboxes[j])
		}
	}()

	// Servers: aggregate their slice across workers (step 2.1–2.2) and
	// broadcast (step 1.4).
	for j := 0; j < m; j++ {
		go func(j int) {
			// Slices arrive in whatever order the workers were scheduled;
			// float addition does not commute across orders, so the server
			// files them by worker and folds in worker order — the order the
			// engine's direct aggregation uses.
			arrived := make([]sliceMsg, len(grads))
			for msg := range inboxes[j] {
				traffic.addServerIn(j, len(msg.slice))
				arrived[msg.worker] = msg
			}
			var acc gradvec.Vector
			for _, msg := range arrived {
				if msg.slice == nil {
					continue
				}
				if acc == nil {
					acc = gradvec.Zeros(len(msg.slice))
				}
				acc.AddScaled(msg.weight, msg.slice)
			}
			traffic.addServerOut(j, len(acc)*len(grads))
			broadcast <- globalMsg{server: j, slice: acc}
		}(j)
	}

	// Recombine (step 1.5). Every worker would do this identically; one
	// representative recombination suffices.
	parts := make([]gradvec.Vector, m)
	for k := 0; k < m; k++ {
		msg := <-broadcast
		parts[msg.server] = msg.slice
		for i := range grads {
			traffic.addWorkerDown(i, len(msg.slice))
		}
	}
	return gradvec.Recombine(parts), traffic
}

// Traffic counts per-node scalars moved during one Exchange.
type Traffic struct {
	mu        sync.Mutex
	WorkerUp  []int
	WorkerDn  []int
	ServerIn  []int
	ServerOut []int
}

// newTraffic allocates counters for n workers and m servers.
func newTraffic(n, m int) *Traffic {
	return &Traffic{
		WorkerUp:  make([]int, n),
		WorkerDn:  make([]int, n),
		ServerIn:  make([]int, m),
		ServerOut: make([]int, m),
	}
}

func (t *Traffic) addWorkerUp(i, n int) {
	t.mu.Lock()
	t.WorkerUp[i] += n
	t.mu.Unlock()
}

func (t *Traffic) addWorkerDown(i, n int) {
	t.mu.Lock()
	t.WorkerDn[i] += n
	t.mu.Unlock()
}

func (t *Traffic) addServerIn(j, n int) {
	t.mu.Lock()
	t.ServerIn[j] += n
	t.mu.Unlock()
}

func (t *Traffic) addServerOut(j, n int) {
	t.mu.Lock()
	t.ServerOut[j] += n
	t.mu.Unlock()
}

// MaxServerIn reports the busiest server's ingest in scalars — the §3.2
// bottleneck measure.
func (t *Traffic) MaxServerIn() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	best := 0
	for _, v := range t.ServerIn {
		if v > best {
			best = v
		}
	}
	return best
}
