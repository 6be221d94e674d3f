// Package simnet models a cluster of nodes connected by a network, on top
// of the discrete-event kernel in package des.
//
// Each node has a compute engine with a configurable rate, and full-duplex
// NICs: an outbound link and an inbound link, each a FIFO resource with its
// own bandwidth. A message from A to B serializes through A's outbound link
// (occupying the sending process), propagates for the network latency, then
// serializes through B's inbound link before it is delivered. Because the
// inbound link is FIFO, k nodes sending m bytes each to the same receiver
// take k·m/bandwidth at the receiver — the incast effect that makes the
// Spark driver the bottleneck the MLlib* paper calls B1/B2.
//
// All sends and receives are accounted, so experiments can assert traffic
// invariants such as the paper's "2·k·m bytes per communication step".
//
// Message sizes are whatever the sender charges, not the in-memory size of
// the Go payload: with sparse model-delta exchange enabled
// (internal/sparse), model messages are charged at their index–value
// encoded size (12·nnz instead of 8·m bytes), so simulated traffic and
// virtual time reflect the compression while the payload Go slices are
// untouched. See ARCHITECTURE.md for the full byte-accounting rules.
package simnet

import (
	"fmt"

	"mllibstar/internal/des"
	"mllibstar/internal/obs"
	"mllibstar/internal/trace"
)

// NodeSpec describes one machine in the cluster.
type NodeSpec struct {
	Name        string
	ComputeRate float64 // work units per second (one unit ≈ one nonzero processed)
	SendBW      float64 // outbound NIC bandwidth, bytes/s
	RecvBW      float64 // inbound NIC bandwidth, bytes/s
}

// Config describes cluster-wide network parameters.
type Config struct {
	Latency       float64 // one-way propagation delay per message, seconds
	OverheadBytes float64 // fixed framing overhead added to every message
}

// Message is a delivered network message.
type Message struct {
	From, To  string
	Tag       string
	Bytes     float64 // payload size (excluding framing overhead)
	Payload   any
	SentAt    float64 // when the sender started transmitting
	DeliverAt float64 // when the receiver NIC finished receiving

	recvStart float64      // when the receiver NIC started receiving
	phase     obs.Phase    // collective phase, from the tag or SendPhase
	channel   obs.Channel  // logical link class, from the tag
	enc       obs.Encoding // wire encoding, from the payload
	mid       int64        // causal message id pairing send and recv events; 0 when causal tracing is off
}

// Node is one simulated machine.
type Node struct {
	spec  NodeSpec
	net   *Network
	out   *des.Resource
	in    *des.Resource
	boxes map[string]*des.Queue[*Message]

	bytesSent float64
	bytesRecv float64
	msgsSent  int
	msgsRecv  int
}

// Network is a set of nodes sharing latency/overhead parameters, a trace
// recorder, and traffic accounting.
type Network struct {
	sim   *des.Sim
	cfg   Config
	nodes map[string]*Node
	order []string
	rec   *trace.Recorder

	totalBytes float64
	totalMsgs  int
}

// New builds a network over sim from the given node specs. rec may be nil to
// disable activity tracing.
func New(sim *des.Sim, cfg Config, specs []NodeSpec, rec *trace.Recorder) *Network {
	n := &Network{sim: sim, cfg: cfg, nodes: make(map[string]*Node, len(specs)), rec: rec}
	for _, sp := range specs {
		if sp.ComputeRate <= 0 || sp.SendBW <= 0 || sp.RecvBW <= 0 {
			panic(fmt.Sprintf("simnet: invalid spec for node %q: %+v", sp.Name, sp))
		}
		if _, dup := n.nodes[sp.Name]; dup {
			panic(fmt.Sprintf("simnet: duplicate node %q", sp.Name))
		}
		n.nodes[sp.Name] = &Node{
			spec:  sp,
			net:   n,
			out:   des.NewResource(sim, sp.Name+"/out"),
			in:    des.NewResource(sim, sp.Name+"/in"),
			boxes: map[string]*des.Queue[*Message]{},
		}
		n.order = append(n.order, sp.Name)
	}
	if sink := obs.Active(); sink.Causal() {
		// Make the event log self-describing for the what-if re-timer: it
		// recomputes message service times from bytes and these rates when
		// a scenario changes message sizes (chunk splits, shard merges).
		sink.CausalSpec("", fmt.Sprintf("latency=%g;overhead=%g", cfg.Latency, cfg.OverheadBytes))
		for _, name := range n.order {
			sp := n.nodes[name].spec
			sink.CausalSpec(name, fmt.Sprintf("rate=%g;sbw=%g;rbw=%g", sp.ComputeRate, sp.SendBW, sp.RecvBW))
		}
	}
	return n
}

// Sim returns the underlying simulation.
func (n *Network) Sim() *des.Sim { return n.sim }

// Recorder returns the trace recorder (possibly nil).
func (n *Network) Recorder() *trace.Recorder { return n.rec }

// Node returns the named node, panicking if it does not exist — an unknown
// node name is always a wiring bug.
func (n *Network) Node(name string) *Node {
	nd, ok := n.nodes[name]
	if !ok {
		panic(fmt.Sprintf("simnet: unknown node %q", name))
	}
	return nd
}

// Names returns node names in creation order.
func (n *Network) Names() []string { return append([]string(nil), n.order...) }

// TotalBytes returns the sum of payload bytes of every message sent so far.
func (n *Network) TotalBytes() float64 { return n.totalBytes }

// TotalMessages returns the number of messages sent so far.
func (n *Network) TotalMessages() int { return n.totalMsgs }

// Name returns the node's name.
func (nd *Node) Name() string { return nd.spec.Name }

// Spec returns the node's spec.
func (nd *Node) Spec() NodeSpec { return nd.spec }

// BytesSent returns total payload bytes this node has transmitted.
func (nd *Node) BytesSent() float64 { return nd.bytesSent }

// BytesRecv returns total payload bytes this node has received.
func (nd *Node) BytesRecv() float64 { return nd.bytesRecv }

func (nd *Node) box(tag string) *des.Queue[*Message] {
	b, ok := nd.boxes[tag]
	if !ok {
		b = des.NewQueue[*Message](nd.net.sim, nd.spec.Name+"/"+tag)
		nd.boxes[tag] = b
	}
	return b
}

// Compute blocks p while the node performs work units of computation and
// records a Compute span. It returns the elapsed virtual time.
func (nd *Node) Compute(p *des.Proc, work float64) float64 {
	return nd.ComputeKind(p, work, trace.Compute, "")
}

// ComputeKind is Compute with an explicit trace kind and note, used to
// distinguish aggregation and model-update work from gradient computation.
func (nd *Node) ComputeKind(p *des.Proc, work float64, kind trace.Kind, note string) float64 {
	if work < 0 {
		panic(fmt.Sprintf("simnet: negative work %g on %s", work, nd.spec.Name))
	}
	d := work / nd.spec.ComputeRate
	start := p.Now()
	p.Wait(d)
	nd.net.rec.Add(nd.spec.Name, kind, start, p.Now(), note)
	obs.Active().SpanProc(nd.spec.Name, obs.PhaseForKind(kind), start, p.Now(), note, causalProc(p))
	return d
}

// causalProc renders p's causal identity, or "" when causal tracing is off —
// the hot paths call it unconditionally, so the string build is gated here.
func causalProc(p *des.Proc) string {
	if !obs.Active().Causal() {
		return ""
	}
	return obs.CausalProcID(p.Name(), p.ID())
}

// Observe records a span over [start, end] — already-elapsed virtual time —
// in the trace and telemetry without consuming any: observe-never-charge.
// The pipelined collectives use it to book the time their task process
// spent blocked on a chunk as a Pipeline span, making the remaining overlap
// headroom visible to attribution while leaving every charge, byte count,
// and result untouched. p fixes which process the observation describes;
// end must not lie in the future.
func (nd *Node) Observe(p *des.Proc, kind trace.Kind, start, end float64, note string) {
	if end > p.Now() {
		panic(fmt.Sprintf("simnet: Observe span ending at %g ahead of now %g on %s", end, p.Now(), nd.spec.Name))
	}
	if end <= start {
		return
	}
	nd.net.rec.Add(nd.spec.Name, kind, start, end, note)
	obs.Active().SpanProc(nd.spec.Name, obs.PhaseForKind(kind), start, end, note, causalProc(p))
}

// Send transmits a message from this node to the named destination. The
// calling process (which must be running on this node) is blocked while the
// message serializes through the outbound NIC; propagation and the
// receiver's inbound serialization happen asynchronously. Delivery order per
// (receiver, tag) mailbox follows inbound-NIC completion order.
//
// The message's telemetry phase and channel are classified from the tag
// (obs.ClassifyTag); use SendPhase when the tag is ambiguous — the
// parameter-server request mailbox carries both pulls and pushes.
func (nd *Node) Send(p *des.Proc, to, tag string, bytes float64, payload any) {
	ph, ch := obs.ClassifyTag(tag)
	nd.sendPhase(p, to, tag, bytes, payload, ph, ch)
}

// SendPhase is Send with an explicit telemetry phase, for senders whose tag
// alone does not identify the collective.
func (nd *Node) SendPhase(p *des.Proc, to, tag string, bytes float64, payload any, ph obs.Phase) {
	_, ch := obs.ClassifyTag(tag)
	nd.sendPhase(p, to, tag, bytes, payload, ph, ch)
}

func (nd *Node) sendPhase(p *des.Proc, to, tag string, bytes float64, payload any, ph obs.Phase, ch obs.Channel) {
	if bytes < 0 {
		panic(fmt.Sprintf("simnet: negative message size %g", bytes))
	}
	dst := nd.net.Node(to)
	enc := obs.EncodingOf(payload)
	wire := bytes + nd.net.cfg.OverheadBytes
	sentAt := p.Now()
	_, outEnd := nd.out.Reserve(wire / nd.spec.SendBW)
	p.WaitUntil(outEnd)
	mid := obs.Active().NewMID()
	nd.net.rec.Add(nd.spec.Name, obs.KindForSend(ph, obs.DirSend), sentAt, outEnd, tag)
	obs.Active().MessageProc(nd.spec.Name, ph, ch, obs.DirSend, enc, bytes, sentAt, outEnd, tag, causalProc(p), mid)

	arrive := outEnd + nd.net.cfg.Latency
	rs, re := dst.in.ReserveAt(arrive, wire/dst.spec.RecvBW)
	msg := &Message{
		From: nd.spec.Name, To: to, Tag: tag, Bytes: bytes, Payload: payload,
		SentAt: sentAt, DeliverAt: re, recvStart: rs,
		phase: ph, channel: ch, enc: enc, mid: mid,
	}
	nd.bytesSent += bytes
	nd.msgsSent++
	dst.bytesRecv += bytes
	dst.msgsRecv++
	nd.net.totalBytes += bytes
	nd.net.totalMsgs++
	dst.box(tag).Put(msg)
}

// Recv blocks p until a message with the given tag has been fully received
// by this node's inbound NIC, records the Recv span, and returns it.
func (nd *Node) Recv(p *des.Proc, tag string) *Message {
	msg := nd.box(tag).Get(p)
	p.WaitUntil(msg.DeliverAt)
	nd.net.rec.Add(nd.spec.Name, obs.KindForSend(msg.phase, obs.DirRecv), msg.recvStart, msg.DeliverAt, tag)
	obs.Active().MessageProc(nd.spec.Name, msg.phase, msg.channel, obs.DirRecv, msg.enc, msg.Bytes, msg.recvStart, msg.DeliverAt, tag, causalProc(p), msg.mid)
	return msg
}

// RecvUntil is Recv with a virtual-time deadline: it returns nil if no
// message with the tag has been queued by the node's inbound NIC before the
// deadline passes. A message whose inbound serialization is still in flight
// at the deadline counts as arrived — the receiver then blocks through its
// DeliverAt as Recv would — so the deadline bounds *admission*, not the last
// byte. The serving router's batch budget is the intended caller: it drains
// requests until batch-full or deadline, whichever comes first.
func (nd *Node) RecvUntil(p *des.Proc, tag string, deadline float64) *Message {
	msg, ok := nd.box(tag).GetUntil(p, deadline)
	if !ok {
		return nil
	}
	p.WaitUntil(msg.DeliverAt)
	nd.net.rec.Add(nd.spec.Name, obs.KindForSend(msg.phase, obs.DirRecv), msg.recvStart, msg.DeliverAt, tag)
	obs.Active().MessageProc(nd.spec.Name, msg.phase, msg.channel, obs.DirRecv, msg.enc, msg.Bytes, msg.recvStart, msg.DeliverAt, tag, causalProc(p), msg.mid)
	return msg
}

// RecvN receives n messages with the given tag and returns them in delivery
// order.
func (nd *Node) RecvN(p *des.Proc, tag string, count int) []*Message {
	out := make([]*Message, 0, count)
	for len(out) < count {
		out = append(out, nd.Recv(p, tag))
	}
	return out
}

// Uniform returns count node specs with identical rates, named prefix0..N-1.
func Uniform(prefix string, count int, computeRate, bw float64) []NodeSpec {
	specs := make([]NodeSpec, count)
	for i := range specs {
		specs[i] = NodeSpec{
			Name:        fmt.Sprintf("%s%d", prefix, i),
			ComputeRate: computeRate,
			SendBW:      bw,
			RecvBW:      bw,
		}
	}
	return specs
}
