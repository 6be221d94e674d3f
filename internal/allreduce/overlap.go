package allreduce

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync/atomic"

	"mllibstar/internal/des"
	"mllibstar/internal/detrand"
	"mllibstar/internal/engine"
	"mllibstar/internal/sparse"
	"mllibstar/internal/trace"
	"mllibstar/internal/vec"
)

// Full compute/communication overlap: the pipelined Reduce-Scatter fed by a
// block-wise gradient producer, so chunk c is on the wire while blocks c+1…
// are still being computed. The chunked schedule of pipeline.go overlaps
// only the collective's own two rounds — the entire local gradient pass
// still completes before the first chunk leaves the NIC. AverageProduced
// removes that residual serialization: the caller hands a Producer (the
// two-pass feature-major kernel, data.GradStream) instead of a finished
// vector, and the collective interleaves block production with the
// Reduce-Scatter sends.
//
// Bit-identity is inherited, not re-argued: the Producer contract requires
// Produce to yield the same float64 bits as the one-shot pass regardless of
// block order, the chunk encodings are made exactly where the pipelined path
// makes them (per chunk when the dense decision is static, per whole
// partition when the sparse-adaptive decision needs one), and the fold/gather
// half is literally shared (foldAndGather). Overlap on or off therefore
// changes virtual time only — never a gradient bit, a message byte, or the
// fold order.

var overlapOn atomic.Bool

// ConfigureOverlap switches the producing collectives (AverageProduced)
// between overlapped block production and the degenerate produce-then-reduce
// schedule. Overlap engages only together with the pipelined chunk schedule
// (Configure): with pipelining off there are no chunk messages to hide
// production behind, so the degenerate path runs. Like Configure this is a
// process-wide switch flipped between runs, not during one.
func ConfigureOverlap(on bool) { overlapOn.Store(on) }

// OverlapEnabled reports whether overlapped production is active.
func OverlapEnabled() bool { return overlapOn.Load() }

// ValidateChunks rejects chunk counts the chunked schedule cannot honor for
// a model of dim coordinates split across k executors: C < 1 is meaningless,
// and C beyond the smallest partition (dim/k coordinates) would leave empty
// chunks. Flag entry points call this to fail fast with a clear message; the
// collectives themselves keep the conservative clamp so programmatic callers
// with tiny models degrade to the sequential schedule instead of erroring.
func ValidateChunks(chunks, dim, k int) error {
	if chunks < 1 {
		return fmt.Errorf("allreduce: chunk count %d is invalid: need at least 1 chunk", chunks)
	}
	if dim > 0 && k > 0 {
		if minPart := dim / k; chunks > minPart {
			return fmt.Errorf("allreduce: chunk count %d exceeds the smallest model partition (%d coordinates over %d executors = %d per partition); use at most %d chunks",
				chunks, dim, k, minPart, minPart)
		}
	}
	return nil
}

// Producer yields a vector block by block, so an overlapped collective can
// ship finished coordinate ranges while later ones are still uncomputed.
// data.GradStream is the canonical implementation (the two-pass
// feature-major gradient kernel).
//
// The contract, which the overlap's bit-identity rests on:
//
//   - Prepare runs once, before any Produce, and is pure (offload-safe).
//   - Produce(lo, hi) finalizes coordinates [lo, hi) of the target vector;
//     blocks may be requested in any order, each exactly once, and the calls
//     the collective makes cover [0, dim). Produce is pure and must yield
//     bits independent of the block partitioning and order.
//   - PrepareWork and Work(lo, hi) are the virtual-time charges; over any
//     partitioning of [0, dim) they must sum to the work the equivalent
//     one-shot computation would charge, so overlap on/off moves charges
//     around without changing their total.
type Producer interface {
	Prepare()
	PrepareWork() float64
	Produce(lo, hi int)
	Work(lo, hi int) float64
}

// AverageProduced is Average for a vector that does not exist yet: prod
// fills local block by block, and when overlap is enabled (ConfigureOverlap
// together with the pipelined schedule) the Reduce-Scatter chunks leave the
// NIC as soon as their blocks are produced. With overlap disabled — or when
// the model is too small to chunk — production collapses into the single
// compute charge the non-overlapped caller would have made, followed by the
// standard collective, so the event sequence is identical to computing local
// first and calling Average.
func AverageProduced(p *des.Proc, ex *engine.Executor, execs []string, self int, name string, local []float64, prod Producer) {
	k := len(execs)
	if self < 0 || self >= k {
		panic(fmt.Sprintf("allreduce: self %d out of %d executors", self, k))
	}
	dim := len(local)
	if OverlapEnabled() && Enabled() && k > 1 {
		C := Chunks()
		if minPart := dim / k; minPart < C {
			C = minPart
		}
		if C > 1 {
			overlapRSG(p, ex, execs, self, name, local, prod, C)
			return
		}
	}
	ex.ChargeAsync(p, prod.PrepareWork()+prod.Work(0, dim), func() {
		prod.Prepare()
		prod.Produce(0, dim)
	})
	Average(p, ex, execs, self, name, local)
}

// overlapRSG runs the chunked Reduce-Scatter/AllGather with block
// production interleaved into the send schedule. The sender process is
// forked before anything is computed; pass 1 (Prepare) runs as one compute
// charge, then peer partitions are produced and enqueued in topology-aware
// route order (RouteOrder — slowest link first), own partition last, and the
// shared foldAndGather finishes the collective. Every production charge is
// annotated with an observe-never-charge FeatBlock span so the overlap is
// visible in the gantt and the event log without double-booking busy time.
func overlapRSG(p *des.Proc, ex *engine.Executor, execs []string, self int, name string, local []float64, prod Producer, C int) {
	k := len(execs)
	dim := len(local)
	sender := ex.StartSender(p, name)
	ex.ChargeAsync(p, prod.PrepareWork(), prod.Prepare)

	recvBW := make([]float64, k)
	for j, nm := range execs {
		recvBW[j] = ex.PeerSpec(nm).RecvBW
	}
	order := RouteOrder(name, self, k, dim, ex.PeerSpec(execs[self]).SendBW, recvBW)
	rsTags, fbNotes := chunkTags("xch:rs:", name, C), chunkTags("fb:", name, C)

	produce := func(c, blo, bhi int) {
		start := p.Now()
		ex.ChargeAsync(p, prod.Work(blo, bhi), func() { prod.Produce(blo, bhi) })
		if now := p.Now(); now > start {
			ex.Node().Observe(p, trace.FeatBlock, start, now, fbNotes[c])
		}
	}
	if !sparse.Enabled() {
		// The encoding decision is statically dense, so chunks are encoded —
		// and shipped — the moment their block closes, chunk-major across the
		// peers in route order. A dense per-chunk EncodeCopy carries the same
		// bytes and bits as the pipelined path's Slice of a whole-partition
		// encoding.
		for c := 0; c < C; c++ {
			for _, j := range order {
				plo, phi := vec.PartitionRange(dim, k, j)
				clo, chi := vec.PartitionRange(phi-plo, C, c)
				produce(c, plo+clo, plo+chi)
				ce := sparse.EncodeCopy(local[plo+clo:plo+chi], nil)
				sender.Send(execs[j], rsTags[c], ce.WireBytes(),
					engine.Block{From: self, To: j, Bytes: ce.WireBytes(), Payload: ce})
			}
		}
	} else {
		// Sparse exchange on: the adaptive dense/sparse decision is made on
		// whole partitions, exactly as the non-overlapped paths make it — so
		// a peer's chunks ship once its partition is fully produced. Overlap
		// degrades from chunk-granular to partition-granular, but partitions
		// still stream out one by one while later ones are uncomputed.
		for _, j := range order {
			plo, phi := vec.PartitionRange(dim, k, j)
			for c := 0; c < C; c++ {
				clo, chi := vec.PartitionRange(phi-plo, C, c)
				produce(c, plo+clo, plo+chi)
			}
			pe := sparse.EncodeCopy(local[plo:phi], nil)
			for c := 0; c < C; c++ {
				clo, chi := vec.PartitionRange(phi-plo, C, c)
				ce := pe.Slice(clo, chi)
				sender.Send(execs[j], rsTags[c], ce.WireBytes(),
					engine.Block{From: self, To: j, Bytes: ce.WireBytes(), Payload: ce})
			}
		}
	}
	// Own partition last: it gates only the local fold, which cannot start
	// before the peers' chunks arrive anyway.
	lo, hi := vec.PartitionRange(dim, k, self)
	for c := 0; c < C; c++ {
		colo, cohi := vec.PartitionRange(hi-lo, C, c)
		produce(c, lo+colo, lo+cohi)
	}
	own := append([]float64(nil), local[lo:hi]...)
	foldAndGather(p, ex, execs, self, name, rsTags, local, nil, true, C, sender, own, nil, !sparse.Enabled())
}

// RouteOrder returns the order in which executor self visits its k−1 peers
// when enqueueing chunked Reduce-Scatter traffic: the peer whose partition
// transfer is slowest first, so the link that gates the round the longest
// starts draining earliest. A partition's cost is its coordinate count over
// the bottleneck of self's send NIC and the peer's receive NIC (the two
// resources its messages serialize through). Ties — every uniform-bandwidth
// cluster — break by a permutation derived deterministically (detrand) from
// the collective name and self, so repeated collectives do not systematically
// favor low-indexed peers. Routing affects message timing only: the fold
// order stays canonical, so results are bit-independent of the route.
func RouteOrder(name string, self, k, dim int, sendBW float64, recvBW []float64) []int {
	peers := make([]int, 0, k-1)
	for j := 0; j < k; j++ {
		if j != self {
			peers = append(peers, j)
		}
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d", name, self)
	perm := detrand.Perm(int64(h.Sum64()), k)
	cost := func(j int) float64 {
		lo, hi := vec.PartitionRange(dim, k, j)
		bw := sendBW
		if j < len(recvBW) && recvBW[j] > 0 && (bw <= 0 || recvBW[j] < bw) {
			bw = recvBW[j]
		}
		if bw <= 0 {
			bw = 1
		}
		return float64(hi-lo) / bw
	}
	sort.SliceStable(peers, func(a, b int) bool {
		ca, cb := cost(peers[a]), cost(peers[b])
		//mlstar:nolint floateq -- exact compare intentional: equal-cost peers (every uniform cluster) must fall through to the deterministic permutation tie-break
		if ca != cb {
			return ca > cb
		}
		return perm[peers[a]] < perm[peers[b]]
	})
	return peers
}
