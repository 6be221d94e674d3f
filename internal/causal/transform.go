package causal

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"mllibstar/internal/allreduce"
	"mllibstar/internal/obs"
	"mllibstar/internal/vec"
)

// This file holds the structural what-if transforms: re-chunking sequential
// AllReduce collectives into the pipelined schedule (internal/allreduce's
// pipelinedRSG), streaming gradient production into those chunks (-overlap,
// allreduce.overlapRSG), and re-sharding the serving tier. Each rebuilds the
// affected subgraph the way the simulator itself would have built it — same
// byte splits, same enqueue orders, same gating — so the re-timed makespan
// is a genuine prediction of the rerun, which TestWhatIfChunkSweep,
// TestWhatIfOverlapSweep, and TestWhatIfShardSweep check against actual
// reruns.

// specFor resolves a host's machine spec; synthesized hosts ("host~2") fall
// back to the host they were split from.
func (r *retimer) specFor(host string) (Spec, error) {
	if i := strings.IndexByte(host, '~'); i >= 0 {
		host = host[:i]
	}
	sp, ok := r.g.src.Specs[host]
	if !ok || sp.SendBW <= 0 || sp.RecvBW <= 0 {
		return sp, fmt.Errorf("causal: no machine spec for %q (re-record the log under -causal)", host)
	}
	return sp, nil
}

func (r *retimer) sendDur(host string, bytes float64) (float64, error) {
	sp, err := r.specFor(host)
	if err != nil {
		return 0, err
	}
	return (bytes + r.g.src.Overhead) / sp.SendBW, nil
}

func (r *retimer) recvDur(host string, bytes float64) (float64, error) {
	sp, err := r.specFor(host)
	if err != nil {
		return 0, err
	}
	return (bytes + r.g.src.Overhead) / sp.RecvBW, nil
}

func (r *retimer) drop(id int, replacements ...int) {
	r.nodes[id].dropped = true
	r.redirect[id] = replacements
}

// ---------------------------------------------------------------------------
// Chunk transform: sequential AllReduce -> pipelined chunks.

// xchRun is one executor's slice of one sequential reduce-scatter/gather
// collective, as recorded in its process chain: k−1 sends and recvs per
// shuffle round, k−1 fold charges between them, k−1 update charges after.
// grad is the anonymous compute charge immediately preceding the first send
// on the same chain — the gradient pass that fed the collective — or −1;
// the overlap transform streams it (streamedInstance).
type xchRun struct {
	name                                               string
	host                                               string
	grad                                               int
	rsSends, rsRecvs, folds, agSends, agRecvs, updates []int
}

const rsPrefix, agPrefix = "xch:rs:", "xch:ag:"

// parseXchRun matches the sequential collective shape starting at position i
// of a process chain; ok is false when the shape does not match (the
// exchange is some other shuffle and stays untouched).
func parseXchRun(g *Graph, ids []int, i int) (run xchRun, next int, ok bool) {
	first := g.Nodes[ids[i]]
	run.name = strings.TrimPrefix(first.Note, rsPrefix)
	run.host = first.Host
	run.grad = -1
	if i > 0 {
		// Collective charges (folds, updates) carry the collective name as
		// their note; the gradient pass is an anonymous Charge, so an
		// un-noted span right before the first send can only be the compute
		// that produced the vector being reduced.
		if prev := g.Nodes[ids[i-1]]; prev.Kind == KindSpan && prev.Note == "" {
			run.grad = ids[i-1]
		}
	}
	rsTag, agTag := rsPrefix+run.name, agPrefix+run.name
	take := func(kind NodeKind, note string) []int {
		var out []int
		for i < len(ids) {
			n := g.Nodes[ids[i]]
			if n.Kind != kind || n.Note != note {
				break
			}
			out = append(out, ids[i])
			i++
		}
		return out
	}
	run.rsSends = take(KindSend, rsTag)
	run.rsRecvs = take(KindRecv, rsTag)
	run.folds = take(KindSpan, run.name)
	run.agSends = take(KindSend, agTag)
	run.agRecvs = take(KindRecv, agTag)
	run.updates = take(KindSpan, run.name)
	a := len(run.rsSends)
	ok = a > 0 && len(run.rsRecvs) == a && len(run.folds) == a &&
		len(run.agSends) == a && len(run.agRecvs) == a && len(run.updates) == a
	if !ok {
		return run, i, false
	}
	return run, i, true
}

// xchInstance is one collective instance across its k executors (runs in
// recorded proc order) with the total model width — the concatenation of the
// k allgather partitions.
type xchInstance struct {
	name string
	runs []xchRun
	dim  int
}

// collectCollectives gathers every sequential collective instance in the
// trace, preserving per-proc order so the q-th run of a name on every
// executor is the q-th instance of that collective.
func collectCollectives(r *retimer) ([]xchInstance, error) {
	g := r.g.src
	runsByName := map[string]map[string][]xchRun{}
	var nameOrder []string
	for _, proc := range g.ProcOrder {
		ids := g.Procs[proc]
		for i := 0; i < len(ids); {
			n := g.Nodes[ids[i]]
			if n.Kind != KindSend || !strings.HasPrefix(n.Note, rsPrefix) {
				i++
				continue
			}
			if strings.Contains(n.Note, ".c") {
				return nil, fmt.Errorf("collectives already pipelined (tag %q)", n.Note)
			}
			if n.Enc == obs.EncSparse {
				return nil, fmt.Errorf("sparse-encoded collective %q: chunk byte split is encoding-dependent", n.Note)
			}
			run, next, ok := parseXchRun(g, ids, i)
			if !ok {
				i++
				continue
			}
			for _, id := range append(append([]int{}, run.rsRecvs...), run.agRecvs...) {
				if g.Nodes[id].Enc == obs.EncSparse {
					return nil, fmt.Errorf("sparse-encoded collective %q: chunk byte split is encoding-dependent", run.name)
				}
			}
			if runsByName[run.name] == nil {
				runsByName[run.name] = map[string][]xchRun{}
				nameOrder = append(nameOrder, run.name)
			}
			runsByName[run.name][proc] = append(runsByName[run.name][proc], run)
			i = next
		}
	}
	var out []xchInstance
	for _, name := range nameOrder {
		byProc := runsByName[name]
		var execs []string
		for _, proc := range g.ProcOrder {
			if _, ok := byProc[proc]; ok {
				execs = append(execs, proc)
			}
		}
		k := len(execs)
		instances := len(byProc[execs[0]])
		for _, proc := range execs {
			if len(byProc[proc]) != instances {
				return nil, fmt.Errorf("collective %q: executors disagree on instance count", name)
			}
		}
		for q := 0; q < instances; q++ {
			runs := make([]xchRun, k)
			dim := 0
			for e, proc := range execs {
				runs[e] = byProc[proc][q]
				if a := len(runs[e].rsSends); a != k-1 {
					return nil, fmt.Errorf("collective %q: %d sends for %d executors", name, a, k)
				}
				dim += int(g.Nodes[runs[e].agSends[0]].Bytes / 8)
			}
			out = append(out, xchInstance{name: name, runs: runs, dim: dim})
		}
	}
	return out, nil
}

// effChunks applies the simulator's chunk cap: never more chunks than the
// smallest partition has coordinates.
func effChunks(C, dim, k int) int {
	if minPart := dim / k; minPart < C {
		C = minPart
	}
	return C
}

// chunkTransform rewrites every sequential collective instance into the
// C-chunk pipelined schedule: a forked sender drains all reduce-scatter
// chunk sends chunk-major, the task folds chunk c as soon as its k−1 pieces
// arrive, and the allgather chunk streams out right after its fold — the
// exact structure of allreduce.pipelinedRSG, including the dim/k chunk cap.
func chunkTransform(r *retimer, C int) error {
	insts, err := collectCollectives(r)
	if err != nil {
		return err
	}
	for _, inst := range insts {
		if effC := effChunks(C, inst.dim, len(inst.runs)); effC > 1 {
			if err := r.chunkInstance(inst.runs, effC); err != nil {
				return err
			}
		}
		// effC <= 1: too small to cut; the rerun keeps it sequential too.
	}
	return nil
}

// chunkBytes returns the wire bytes of chunk c of the partition an original
// send carried: the same PartitionRange split the pipelined simulator makes.
func (r *retimer) chunkBytes(origSend int, C, c int) float64 {
	ln := int(r.g.src.Nodes[origSend].Bytes / 8)
	lo, hi := vec.PartitionRange(ln, C, c)
	return 8 * float64(hi-lo)
}

// chunkInstance rebuilds one collective instance across its k executors.
func (r *retimer) chunkInstance(runs []xchRun, C int) error {
	g := r.g.src
	k := len(runs)
	chunkSends := map[int][]int{} // original send id -> per-chunk synthesized sends
	childPrev := make([]int, k)
	childSub := make([]int, k)

	// Pass 1: the forked sender on each executor enqueues every
	// reduce-scatter chunk up front, chunk-major across peers.
	for e, run := range runs {
		anchor := g.Nodes[run.rsSends[0]]
		fork := r.add(&rnode{
			kind: KindFork, host: run.host,
			preds: append([]redge(nil), r.nodes[run.rsSends[0]].preds...),
			keyT:  anchor.Start, keyID: anchor.ID, keySub: 1,
		})
		childPrev[e], childSub[e] = fork, 1
		for c := 0; c < C; c++ {
			for _, sid := range run.rsSends {
				bytes := r.chunkBytes(sid, C, c)
				dur, err := r.sendDur(run.host, bytes)
				if err != nil {
					return err
				}
				childSub[e]++
				id := r.add(&rnode{
					kind: KindSend, host: run.host, res: run.host + "/out", dur: dur,
					preds: []redge{{from: childPrev[e]}},
					keyT:  anchor.Start, keyID: anchor.ID, keySub: childSub[e],
				})
				childPrev[e] = id
				chunkSends[sid] = append(chunkSends[sid], id)
			}
		}
	}
	return r.chunkFoldGather(runs, C, chunkSends, childPrev, childSub, nil)
}

// chunkFoldGather builds the fold and allgather halves of a chunked
// collective — shared by the plain chunk rebuild and the streamed (overlap)
// rebuild. chunkSends maps each original reduce-scatter send to its C
// synthesized chunk sends; childPrev/childSub continue each executor's
// out-NIC sender chain. prodTail, when non-nil, roots executor e's fold
// chain at its last gradient-production block (the streamed schedule, where
// the task process produces all own-partition blocks before folding) and
// drops the recorded gradient span alongside the collective's own nodes.
func (r *retimer) chunkFoldGather(runs []xchRun, C int, chunkSends map[int][]int, childPrev, childSub []int, prodTail []int) error {
	g := r.g.src
	k := len(runs)
	foldLast := make([]int, k)
	chunkBytes := func(origSend int, c int) float64 { return r.chunkBytes(origSend, C, c) }
	// Pass 2: each executor receives chunk c from its k−1 peers, folds it,
	// and streams the matching allgather chunk right after the fold.
	for e, run := range runs {
		// Chunk recvs key off the run's FIRST original recv, chunk-major
		// across peers — the in-NIC FIFO order the pipelined simulator
		// produces (reservations land in send-completion order, and every
		// peer finishes its chunk c before any finishes c+1). Anchoring each
		// chunk on its own original recv would replay the queue peer-major
		// and serialize the folds behind whole peers' worth of chunks.
		rsChunkRecvs := make([][]redge, C)
		anchorR := g.Nodes[run.rsRecvs[0]]
		for c := 0; c < C; c++ {
			for pi, rid := range run.rsRecvs {
				sid, ok := g.SendByMID[g.Nodes[rid].MID]
				if !ok {
					return fmt.Errorf("collective %q: unmatched recv", run.name)
				}
				dur, err := r.recvDur(run.host, chunkBytes(sid, c))
				if err != nil {
					return err
				}
				id := r.add(&rnode{
					kind: KindRecv, host: run.host, res: run.host + "/in", dur: dur,
					preds: []redge{{from: chunkSends[sid][c], lag: g.Latency}},
					keyT:  anchorR.Start, keyID: anchorR.ID, keySub: c*len(run.rsRecvs) + pi + 1,
				})
				rsChunkRecvs[c] = append(rsChunkRecvs[c], redge{from: id})
			}
		}
		totFold := 0.0
		for _, fid := range run.folds {
			totFold += g.Nodes[fid].Dur
		}
		lnOwn := int(g.Nodes[run.agSends[0]].Bytes / 8)
		anchorF := g.Nodes[run.folds[0]]
		prev := -1
		if prodTail != nil {
			prev = prodTail[e]
		}
		folds := make([]int, C)
		for c := 0; c < C; c++ {
			lo, hi := vec.PartitionRange(lnOwn, C, c)
			preds := append([]redge(nil), rsChunkRecvs[c]...)
			if prev >= 0 {
				preds = append(preds, redge{from: prev})
			}
			folds[c] = r.add(&rnode{
				kind: KindSpan, host: run.host, dur: totFold * float64(hi-lo) / float64(lnOwn),
				preds: preds, keyT: anchorF.Start, keyID: anchorF.ID, keySub: c + 1,
			})
			prev = folds[c]
		}
		foldLast[e] = folds[C-1]
		anchor := g.Nodes[run.rsSends[0]]
		for c := 0; c < C; c++ {
			for _, aid := range run.agSends {
				dur, err := r.sendDur(run.host, chunkBytes(aid, c))
				if err != nil {
					return err
				}
				childSub[e]++
				id := r.add(&rnode{
					kind: KindSend, host: run.host, res: run.host + "/out", dur: dur,
					preds: []redge{{from: childPrev[e]}, {from: folds[c]}},
					keyT:  anchor.Start, keyID: anchor.ID, keySub: childSub[e],
				})
				childPrev[e] = id
				chunkSends[aid] = append(chunkSends[aid], id)
			}
		}
	}
	// Pass 3: allgather chunk recvs and per-chunk update charges; every
	// original node of the instance redirects to the executor's last update.
	for e, run := range runs {
		// Chunk-major keys for the same in-NIC FIFO reason as the
		// reduce-scatter recvs above.
		agChunkRecvs := make([][]redge, C)
		anchorR := g.Nodes[run.agRecvs[0]]
		for c := 0; c < C; c++ {
			for pi, rid := range run.agRecvs {
				sid, ok := g.SendByMID[g.Nodes[rid].MID]
				if !ok {
					return fmt.Errorf("collective %q: unmatched recv", run.name)
				}
				dur, err := r.recvDur(run.host, chunkBytes(sid, c))
				if err != nil {
					return err
				}
				id := r.add(&rnode{
					kind: KindRecv, host: run.host, res: run.host + "/in", dur: dur,
					preds: []redge{{from: chunkSends[sid][c], lag: g.Latency}},
					keyT:  anchorR.Start, keyID: anchorR.ID, keySub: c*len(run.agRecvs) + pi + 1,
				})
				agChunkRecvs[c] = append(agChunkRecvs[c], redge{from: id})
			}
		}
		anchorU := g.Nodes[run.updates[0]]
		prev := foldLast[e]
		for c := 0; c < C; c++ {
			dur := 0.0
			for q, uid := range run.updates {
				ln := int(g.Nodes[run.agRecvs[q]].Bytes / 8)
				lo, hi := vec.PartitionRange(ln, C, c)
				dur += g.Nodes[uid].Dur * float64(hi-lo) / float64(ln)
			}
			preds := append([]redge(nil), agChunkRecvs[c]...)
			preds = append(preds, redge{from: prev})
			prev = r.add(&rnode{
				kind: KindSpan, host: run.host, dur: dur,
				preds: preds, keyT: anchorU.Start, keyID: anchorU.ID, keySub: c + 1,
			})
		}
		for _, ids := range [][]int{run.rsSends, run.rsRecvs, run.folds, run.agSends, run.agRecvs, run.updates} {
			for _, id := range ids {
				r.drop(id, prev)
			}
		}
		if prodTail != nil && run.grad >= 0 {
			r.drop(run.grad, prev)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Overlap transform: stream gradient production into the chunked schedule.

// streamedPrefixes names the collectives whose vectors are produced block by
// block inside the collective when -overlap is on — the
// allreduce.AverageProduced call sites: LBFGS*'s lbg%d, SVRG's anchor
// gradient svrg-mu%d, and the distributed-GD superstep gd%d
// (internal/bench). A call site that adopts AverageProduced must register
// its name prefix here for the overlap what-if to stream it; unregistered
// collectives get the plain chunk rebuild, which is what their rerun does.
var streamedPrefixes = []string{"lbg", "svrg-mu", "gd"}

func streamedCollective(name string) bool {
	for _, p := range streamedPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// overlapTransform re-times the trace under -overlap: every sequential
// collective becomes C-chunk pipelined, and instances whose name is a
// registered AverageProduced call site — and whose recorded gradient charge
// is visible on every executor's chain — are rebuilt with production
// streamed into the sends (streamedInstance).
func overlapTransform(r *retimer, C int) error {
	insts, err := collectCollectives(r)
	if err != nil {
		return err
	}
	streamed := 0
	for _, inst := range insts {
		effC := effChunks(C, inst.dim, len(inst.runs))
		if effC <= 1 {
			continue // too small to cut; the rerun keeps it sequential too
		}
		gradOK := streamedCollective(inst.name)
		for e, run := range inst.runs {
			// The rerun splits [0, dim) with PartitionRange over executor
			// INDEX; runs are in recorded proc order, which the engine's
			// stage spawns keep in index order. If the recorded partition
			// widths disagree with that split, the positional identification
			// is wrong — fall back to the plain chunk rebuild rather than
			// misattribute production widths.
			lo, hi := vec.PartitionRange(inst.dim, len(inst.runs), e)
			gradOK = gradOK && run.grad >= 0 &&
				int(r.g.src.Nodes[run.agSends[0]].Bytes/8) == hi-lo
		}
		if gradOK {
			if err := r.streamedInstance(inst, effC); err != nil {
				return err
			}
			streamed++
		} else if err := r.chunkInstance(inst.runs, effC); err != nil {
			return err
		}
	}
	if streamed == 0 {
		return fmt.Errorf("no streamable gradient collectives in this trace (want an %v-prefixed collective fed by a visible gradient charge)", streamedPrefixes)
	}
	return nil
}

// streamedInstance rebuilds one gradient-producing collective the way
// allreduce.overlapRSG schedules it: the sender is forked at collective
// entry; pass 1 of the two-pass kernel (per-row derivatives) runs as half
// the recorded gradient charge (GradStream's PrepareWork convention); then
// the remaining half is produced block by block — chunk-major, peers in
// topology-aware route order, own partition last — with each reduce-scatter
// chunk send gated on its block closing plus the out-NIC FIFO. The fold and
// allgather halves are shared with the plain chunk rebuild, the fold chain
// rooted at the last own-partition block. Block charges are apportioned by
// coordinate width; the rerun charges them by nonzero count, which the trace
// cannot see — the residual the overlap sweep's tolerance covers.
func (r *retimer) streamedInstance(inst xchInstance, C int) error {
	g := r.g.src
	runs, dim := inst.runs, inst.dim
	k := len(runs)
	// Each original reduce-scatter send's destination executor, recovered
	// through its matched recv; then inverted so sendTo[e][j] is e's send to
	// peer j — the route order indexes peers, the chain holds send ids.
	dstOf := map[int]int{}
	for e2, run2 := range runs {
		for _, rid := range run2.rsRecvs {
			sid, ok := g.SendByMID[g.Nodes[rid].MID]
			if !ok {
				return fmt.Errorf("collective %q: unmatched recv", inst.name)
			}
			dstOf[sid] = e2
		}
	}
	sendTo := make([][]int, k)
	for e, run := range runs {
		sendTo[e] = make([]int, k)
		for j := range sendTo[e] {
			sendTo[e][j] = -1
		}
		for _, sid := range run.rsSends {
			dst, ok := dstOf[sid]
			if !ok {
				return fmt.Errorf("collective %q: send without a matched recv", inst.name)
			}
			sendTo[e][dst] = sid
		}
	}
	recvBW := make([]float64, k)
	for j, run := range runs {
		sp, err := r.specFor(run.host)
		if err != nil {
			return err
		}
		recvBW[j] = sp.RecvBW
	}

	chunkSends := map[int][]int{}
	childPrev := make([]int, k)
	childSub := make([]int, k)
	prodTail := make([]int, k)
	for e, run := range runs {
		sp, err := r.specFor(run.host)
		if err != nil {
			return err
		}
		// The exact route the rerun will take: deterministic in (name, e).
		order := allreduce.RouteOrder(inst.name, e, k, dim, sp.SendBW, recvBW)
		grad := g.Nodes[run.grad]
		anchor := g.Nodes[run.rsSends[0]]
		fork := r.add(&rnode{
			kind: KindFork, host: run.host,
			preds: append([]redge(nil), r.nodes[run.grad].preds...),
			keyT:  anchor.Start, keyID: anchor.ID, keySub: 1,
		})
		childPrev[e], childSub[e] = fork, 1
		taskSub := 1
		pass1 := r.add(&rnode{
			kind: KindSpan, host: run.host, dur: grad.Dur / 2,
			preds: append([]redge(nil), r.nodes[run.grad].preds...),
			keyT:  grad.Start, keyID: grad.ID, keySub: taskSub,
		})
		taskPrev := pass1
		produce := func(j, c int) {
			plo, phi := vec.PartitionRange(dim, k, j)
			clo, chi := vec.PartitionRange(phi-plo, C, c)
			taskSub++
			taskPrev = r.add(&rnode{
				kind: KindSpan, host: run.host,
				dur:   grad.Dur / 2 * float64(chi-clo) / float64(dim),
				preds: []redge{{from: taskPrev}},
				keyT:  grad.Start, keyID: grad.ID, keySub: taskSub,
			})
		}
		for c := 0; c < C; c++ {
			for _, j := range order {
				produce(j, c)
				sid := sendTo[e][j]
				if sid < 0 {
					return fmt.Errorf("collective %q: no send from executor %d to peer %d", inst.name, e, j)
				}
				dur, err := r.sendDur(run.host, r.chunkBytes(sid, C, c))
				if err != nil {
					return err
				}
				childSub[e]++
				id := r.add(&rnode{
					kind: KindSend, host: run.host, res: run.host + "/out", dur: dur,
					preds: []redge{{from: childPrev[e]}, {from: taskPrev}},
					keyT:  anchor.Start, keyID: anchor.ID, keySub: childSub[e],
				})
				childPrev[e] = id
				chunkSends[sid] = append(chunkSends[sid], id)
			}
		}
		// Own partition last: it gates only the local fold chain.
		for c := 0; c < C; c++ {
			produce(e, c)
		}
		prodTail[e] = taskPrev
	}
	return r.chunkFoldGather(runs, C, chunkSends, childPrev, childSub, prodTail)
}

// ---------------------------------------------------------------------------
// Shard transform: re-shard the serving tier.

const shardNotePrefix = "serve.shard"

// triplet is one shard interaction: a fan-out send, its recv at the shard,
// the shard's work span, the shard's reply send, and the reply's recv back
// at the sender.
type triplet struct {
	send, recv, span, rep, repRecv int
	shard                          int
}

func shardIndex(note string) (int, bool) {
	if !strings.HasPrefix(note, shardNotePrefix) {
		return 0, false
	}
	i, err := strconv.Atoi(note[len(shardNotePrefix):])
	return i, err == nil
}

// serveShardCount returns the number of shard hosts the trace talks to.
func serveShardCount(g *Graph) int {
	seen := map[int]bool{}
	for _, n := range g.Nodes {
		if i, ok := shardIndex(n.Note); ok && n.Kind == KindRecv {
			seen[i] = true
		}
	}
	return len(seen)
}

// shardTransform re-shards the serving tier to s shards: merging (s below
// the recorded count) rebuilds each fan-out as fewer, larger shard
// interactions with the work serialized on the surviving hosts — near-exact,
// since every nonzero is owned by exactly one shard either way; splitting
// (s above) divides each interaction across synthesized hosts, a heuristic
// that assumes the nonzeros split evenly.
func shardTransform(r *retimer, s int) error {
	g := r.g.src
	hostOf := map[int]string{}
	for _, n := range g.Nodes {
		if i, ok := shardIndex(n.Note); ok && n.Kind == KindRecv {
			hostOf[i] = n.Host
		}
	}
	k := len(hostOf)
	if k == 0 {
		return fmt.Errorf("no serving-tier traffic in this trace")
	}
	for i := 0; i < k; i++ {
		if hostOf[i] == "" {
			return fmt.Errorf("shard indices not contiguous (missing %d)", i)
		}
	}
	if s == k {
		return nil
	}
	pos := map[int]int{} // node id -> index within its proc chain
	for _, proc := range g.ProcOrder {
		for i, id := range g.Procs[proc] {
			pos[id] = i
		}
	}
	chase := func(sid int) (triplet, error) {
		t := triplet{send: sid}
		t.shard, _ = shardIndex(g.Nodes[sid].Note)
		rid, ok := r.g.recvOfMID[g.Nodes[sid].MID]
		if !ok {
			return t, fmt.Errorf("shard send without a recv")
		}
		t.recv = rid
		chain := g.Procs[g.Nodes[rid].Proc]
		p := pos[rid]
		if p+2 >= len(chain) {
			return t, fmt.Errorf("truncated shard interaction")
		}
		t.span, t.rep = chain[p+1], chain[p+2]
		if g.Nodes[t.span].Kind != KindSpan || g.Nodes[t.rep].Kind != KindSend {
			return t, fmt.Errorf("unrecognized shard interaction shape")
		}
		t.repRecv, ok = r.g.recvOfMID[g.Nodes[t.rep].MID]
		if !ok {
			return t, fmt.Errorf("shard reply without a recv")
		}
		return t, nil
	}
	var groups [][]triplet
	for _, proc := range g.ProcOrder {
		ids := g.Procs[proc]
		for i := 0; i < len(ids); {
			n := g.Nodes[ids[i]]
			if _, ok := shardIndex(n.Note); !ok || n.Kind != KindSend {
				i++
				continue
			}
			var grp []triplet
			for i < len(ids) {
				m := g.Nodes[ids[i]]
				if _, ok := shardIndex(m.Note); !ok || m.Kind != KindSend {
					break
				}
				t, err := chase(ids[i])
				if err != nil {
					return err
				}
				grp = append(grp, t)
				i++
			}
			groups = append(groups, grp)
		}
	}
	chains := map[string][]chainRec{}
	const header = 16.0 // serve headerBytes: one per message, so merging n messages saves 16·(n−1)
	if s < k {
		mergedIdx := func(i int) int { return i * s / k }
		mergedHost := make([]string, s)
		for i := k - 1; i >= 0; i-- {
			mergedHost[mergedIdx(i)] = hostOf[i]
		}
		for _, grp := range groups {
			buckets := map[int][]triplet{}
			var order []int
			for _, t := range grp {
				m := mergedIdx(t.shard)
				if _, ok := buckets[m]; !ok {
					order = append(order, m)
				}
				buckets[m] = append(buckets[m], t)
			}
			sort.Ints(order)
			for _, m := range order {
				if err := r.mergeBucket(buckets[m], mergedHost[m], header, chains); err != nil {
					return err
				}
			}
		}
	} else {
		if s%k != 0 {
			return fmt.Errorf("shard split wants a multiple of the recorded %d shards, got %d", k, s)
		}
		f := s / k
		for _, grp := range groups {
			for _, t := range grp {
				if err := r.splitTriplet(t, f, header, chains); err != nil {
					return err
				}
			}
		}
	}
	for host, recs := range chains { //mlstar:nolint determinism -- each host's chain is independent; iteration order does not affect the result
		_ = host
		sort.Slice(recs, func(a, b int) bool {
			//mlstar:nolint floateq -- exact compare intentional: equal keys fall through to the id tie-break
			if recs[a].keyT != recs[b].keyT {
				return recs[a].keyT < recs[b].keyT
			}
			return recs[a].keyID < recs[b].keyID
		})
		for i := 1; i < len(recs); i++ {
			rn := r.nodes[recs[i].span]
			rn.preds = append(rn.preds, redge{from: recs[i-1].last})
		}
	}
	return nil
}

// mergeBucket folds n shard interactions of one fan-out into a single
// interaction on the surviving host.
func (r *retimer) mergeBucket(ts []triplet, host string, header float64, chains map[string][]chainRec) error {
	g := r.g.src
	n := float64(len(ts))
	sendBytes, repBytes, spanDur := 0.0, 0.0, 0.0
	mergedSpec, err := r.specFor(host)
	if err != nil {
		return err
	}
	for _, t := range ts {
		sendBytes += g.Nodes[t.send].Bytes
		repBytes += g.Nodes[t.rep].Bytes
		d := g.Nodes[t.span].Dur
		if sp, err := r.specFor(hostOfNode(g, t.span)); err == nil && sp.Rate > 0 && mergedSpec.Rate > 0 {
			d *= sp.Rate / mergedSpec.Rate
		}
		spanDur += d
	}
	sendBytes -= header * (n - 1)
	repBytes -= header * (n - 1)
	t0 := ts[0]
	srcHost := g.Nodes[t0.send].Host
	dstHost := g.Nodes[t0.repRecv].Host
	sDur, err := r.sendDur(srcHost, sendBytes)
	if err != nil {
		return err
	}
	anchor := g.Nodes[t0.send]
	send := r.add(&rnode{
		kind: KindSend, host: srcHost, res: srcHost + "/out", dur: sDur,
		preds: append([]redge(nil), r.nodes[t0.send].preds...),
		keyT:  anchor.Start, keyID: anchor.ID, keySub: 1,
	})
	rDur, err := r.recvDur(host, sendBytes)
	if err != nil {
		return err
	}
	aR := g.Nodes[t0.recv]
	recv := r.add(&rnode{
		kind: KindRecv, host: host, res: host + "/in", dur: rDur,
		preds: []redge{{from: send, lag: g.Latency}},
		keyT:  aR.Start, keyID: aR.ID, keySub: 1,
	})
	aS := g.Nodes[t0.span]
	span := r.add(&rnode{
		kind: KindSpan, host: host, dur: spanDur,
		preds: []redge{{from: recv}},
		keyT:  aS.Start, keyID: aS.ID, keySub: 1,
	})
	pDur, err := r.sendDur(host, repBytes)
	if err != nil {
		return err
	}
	aP := g.Nodes[t0.rep]
	rep := r.add(&rnode{
		kind: KindSend, host: host, res: host + "/out", dur: pDur,
		preds: []redge{{from: span}},
		keyT:  aP.Start, keyID: aP.ID, keySub: 1,
	})
	qDur, err := r.recvDur(dstHost, repBytes)
	if err != nil {
		return err
	}
	aQ := g.Nodes[t0.repRecv]
	repRecv := r.add(&rnode{
		kind: KindRecv, host: dstHost, res: dstHost + "/in", dur: qDur,
		preds: []redge{{from: rep, lag: g.Latency}},
		keyT:  aQ.Start, keyID: aQ.ID, keySub: 1,
	})
	for _, t := range ts {
		r.drop(t.send, send)
		r.drop(t.recv, recv)
		r.drop(t.span, span)
		r.drop(t.rep, rep)
		r.drop(t.repRecv, repRecv)
	}
	chains[host] = append(chains[host], chainRec{keyT: aS.Start, keyID: aS.ID, span: span, last: rep})
	return nil
}

// splitTriplet divides one shard interaction across f sub-shards, the
// synthesized ones named host~1..host~f−1 and inheriting the host's spec.
func (r *retimer) splitTriplet(t triplet, f int, header float64, chains map[string][]chainRec) error {
	g := r.g.src
	srcHost := g.Nodes[t.send].Host
	baseHost := g.Nodes[t.recv].Host
	dstHost := g.Nodes[t.repRecv].Host
	sendBytes := (g.Nodes[t.send].Bytes-header)/float64(f) + header
	repBytes := (g.Nodes[t.rep].Bytes-header)/float64(f) + header
	spanDur := g.Nodes[t.span].Dur / float64(f)
	var sends, recvs, spans, reps, repRecvs []int
	prevSend := -1
	for i := 0; i < f; i++ {
		sub := baseHost
		if i > 0 {
			sub = baseHost + "~" + strconv.Itoa(i)
		}
		sDur, err := r.sendDur(srcHost, sendBytes)
		if err != nil {
			return err
		}
		var sPreds []redge
		if prevSend < 0 {
			sPreds = append([]redge(nil), r.nodes[t.send].preds...)
		} else {
			sPreds = []redge{{from: prevSend}}
		}
		a := g.Nodes[t.send]
		send := r.add(&rnode{
			kind: KindSend, host: srcHost, res: srcHost + "/out", dur: sDur,
			preds: sPreds, keyT: a.Start, keyID: a.ID, keySub: i + 1,
		})
		prevSend = send
		rDur, err := r.recvDur(sub, sendBytes)
		if err != nil {
			return err
		}
		aR := g.Nodes[t.recv]
		recv := r.add(&rnode{
			kind: KindRecv, host: sub, res: sub + "/in", dur: rDur,
			preds: []redge{{from: send, lag: g.Latency}},
			keyT:  aR.Start, keyID: aR.ID, keySub: i + 1,
		})
		aS := g.Nodes[t.span]
		span := r.add(&rnode{
			kind: KindSpan, host: sub, dur: spanDur,
			preds: []redge{{from: recv}},
			keyT:  aS.Start, keyID: aS.ID, keySub: i + 1,
		})
		pDur, err := r.sendDur(sub, repBytes)
		if err != nil {
			return err
		}
		aP := g.Nodes[t.rep]
		rep := r.add(&rnode{
			kind: KindSend, host: sub, res: sub + "/out", dur: pDur,
			preds: []redge{{from: span}},
			keyT:  aP.Start, keyID: aP.ID, keySub: i + 1,
		})
		qDur, err := r.recvDur(dstHost, repBytes)
		if err != nil {
			return err
		}
		aQ := g.Nodes[t.repRecv]
		repRecv := r.add(&rnode{
			kind: KindRecv, host: dstHost, res: dstHost + "/in", dur: qDur,
			preds: []redge{{from: rep, lag: g.Latency}},
			keyT:  aQ.Start, keyID: aQ.ID, keySub: i + 1,
		})
		sends, recvs, spans = append(sends, send), append(recvs, recv), append(spans, span)
		reps, repRecvs = append(reps, rep), append(repRecvs, repRecv)
		chains[sub] = append(chains[sub], chainRec{keyT: aS.Start, keyID: aS.ID, span: span, last: rep})
	}
	r.drop(t.send, sends...)
	r.drop(t.recv, recvs...)
	r.drop(t.span, spans...)
	r.drop(t.rep, reps...)
	r.drop(t.repRecv, repRecvs...)
	return nil
}

func hostOfNode(g *Graph, id int) string { return g.Nodes[id].Host }

// chainRec orders a surviving shard host's synthesized work spans so
// consecutive interactions serialize the way one shard process would: each
// span is additionally gated by the previous interaction's reply send.
type chainRec struct {
	keyT       float64
	keyID      int
	span, last int
}

// ---------------------------------------------------------------------------
// Standard scenario set.

// hasSequentialCollectives reports whether the trace carries un-chunked
// reduce-scatter traffic the chunk transform can act on.
func hasSequentialCollectives(g *Graph) bool {
	for _, n := range g.Nodes {
		if n.Kind == KindSend && strings.HasPrefix(n.Note, rsPrefix) && !strings.Contains(n.Note, ".c") {
			return true
		}
	}
	return false
}

// hasStreamedCollectives reports whether any of that traffic belongs to a
// gradient-producing (AverageProduced) call site the overlap transform can
// stream.
func hasStreamedCollectives(g *Graph) bool {
	for _, n := range g.Nodes {
		if n.Kind == KindSend && strings.HasPrefix(n.Note, rsPrefix) && !strings.Contains(n.Note, ".c") &&
			streamedCollective(strings.TrimPrefix(n.Note, rsPrefix)) {
			return true
		}
	}
	return false
}

// StandardScenarios returns the named what-if set for a trace: the uniform
// scalings always, the chunk re-pipelining when sequential collectives are
// present, and the shard re-counts when the trace has a serving tier.
func StandardScenarios(g *Graph) []Scenario {
	scs := []Scenario{
		{Name: "baseline"},
		{Name: "comm x0.5", CommScale: 0.5},
		{Name: "compute x0.5", ComputeScale: 0.5},
		{Name: "latency x0.5", LatencyScale: 0.5},
		{Name: "driver=0", DriverZero: true},
	}
	if hasSequentialCollectives(g) {
		scs = append(scs, Scenario{Name: "chunks=8", Chunks: 8})
		if hasStreamedCollectives(g) {
			scs = append(scs, Scenario{Name: "overlap", Overlap: true})
		}
	}
	if k := serveShardCount(g); k > 0 {
		scs = append(scs, Scenario{Name: fmt.Sprintf("shards=%d", 2*k), Shards: 2 * k})
		if k > 1 {
			scs = append(scs, Scenario{Name: "shards=1", Shards: 1})
		}
	}
	return scs
}

// WhatIf re-times every scenario against the graph.
func WhatIf(g *Graph, scs []Scenario) []Prediction {
	out := make([]Prediction, 0, len(scs))
	for _, sc := range scs {
		out = append(out, Retime(g, sc))
	}
	return out
}

// WhatIfText renders the scenario table. Deterministic for a given log.
func WhatIfText(g *Graph, preds []Prediction) string {
	var b strings.Builder
	fmt.Fprintf(&b, "what-if re-timing (recorded makespan %.6fs):\n", g.Makespan())
	fmt.Fprintf(&b, "  %-14s %16s %9s\n", "scenario", "predicted", "speedup")
	for _, p := range preds {
		if p.Err != "" {
			fmt.Fprintf(&b, "  %-14s %16s   (%s)\n", p.Scenario.Name, "n/a", p.Err)
			continue
		}
		fmt.Fprintf(&b, "  %-14s %15.6fs %8.2fx\n", p.Scenario.Name, p.Makespan, p.Speedup)
	}
	return b.String()
}
