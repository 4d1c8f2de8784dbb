package explore

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/agent"
	"repro/internal/audit"
	"repro/internal/ccs"
	"repro/internal/fleet"
	"repro/internal/fleetobs"
	"repro/internal/journal"
	"repro/internal/manager"
	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/replica"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// packet is one in-flight application packet.
type packet struct {
	cid ccs.CID
	key string
}

type choiceKind int

const (
	chMgrRecv    choiceKind = iota // deliver an upward message to the manager
	chCoordRecv                    // deliver a message to a fleet coordinator
	chAgentRecv                    // deliver a manager command to an agent
	chAppDeliver                   // deliver the oldest packet on a flow
	chEmit                         // a sender emits one packet per outgoing flow
	chTimeout                      // fault: the manager's current wait times out
	chDrop                         // fault: drop a pending protocol message
	chFailReset                    // fault: deliver a reset that never quiesces
	chCrash                        // fault: crash an agent instead of delivering
)

// choice is one enumerated scheduling alternative.
type choice struct {
	kind     choiceKind
	from, to string // virtual link key (deliveries and chDrop)
	flow     int    // flow index (chAppDeliver)
	sender   string // emitting process (chEmit)
}

// execution is one deterministic run of the full adaptation: the
// manager, the agents, the virtual network and the application model,
// all driven from the scheduler on a single goroutine. It is the choice
// policy of its simnet.Net (it implements simnet.World): every frame a
// port accepts waits in pending until the chooser picks its delivery, its
// loss, or a fault at its receiver.
type execution struct {
	x  *Explorer
	m  *Model
	ch chooser

	reg *model.Registry
	// clock is the virtual time source shared by the manager, the agents
	// and the scheduler. It advances only when the scheduler applies an
	// event, so identical schedules yield identical timestamps.
	clock     *simnet.ManualClock
	net       *simnet.Net
	procs     map[string]*vproc
	procNames []string
	agents    map[string]*agent.Agent
	mgr       *manager.Manager

	// topo and coords are set in fleet mode (Model.FleetFanout > 0): the
	// hierarchical control plane interposed between manager and agents,
	// with every coordinator driven synchronously from the scheduler.
	topo         *fleet.Topology
	coords       map[string]*fleet.Coordinator
	coordCrashes int

	pending     []simnet.Frame // in-flight protocol frames, send order
	flows       [][]packet     // in-flight packets per model flow
	nextCID     ccs.CID
	packetsLeft int
	faultsLeft  int
	events      int
	livelocked  bool

	crashed  map[string]bool
	anyCrash bool
	// ponr marks step attempts whose first resume was sent — the point of
	// no return. Keyed per sending epoch: each manager incarnation's own
	// send ordering must respect its committed decisions, while a fenced
	// straggler racing a higher-epoch successor is the agents' problem
	// (the execution-level `resumed` ledger below checks the ground truth).
	ponr map[waveKey]bool
	// resumed marks step attempts some process actually executed a resume
	// for. A later rollback that undoes that attempt's in-action at any
	// process is the paper's central forbidden transition, checked at the
	// ground truth regardless of which manager incarnation sent what.
	resumed map[stepKey]bool

	// journal is the manager's write-ahead log; every incarnation of the
	// manager in this execution appends to it. Manager crashes are injected
	// at its record boundaries (armCrash) and survive into the successor's
	// recovery, exactly like a real on-disk journal.
	journal *journal.Mem
	// mgrCrashes counts injected manager deaths; deadMgrs keeps the crashed
	// incarnations so finish can audit their (partial) traces too.
	mgrCrashes int
	deadMgrs   []*manager.Manager

	// churn, when non-nil, replaces cold crash recovery with hot standby
	// takeover: the manager journals through a replica.Tee whose sinks are
	// the in-process standbys below, and a manager death promotes one (or,
	// for double-takeover plans, two racing) standbys via RecoverState.
	churn     *churnPlan
	tee       *replica.Tee
	standbys  []*simStandby
	takeovers int

	checker   *ccs.Checker
	ccsExempt map[ccs.CID]bool

	violations []Violation
	trace      []string
}

// waveKey identifies one manager incarnation's wave for one step attempt.
type waveKey struct {
	epoch   uint64
	path    int
	attempt int
	action  string
}

// stepKey identifies a step attempt across incarnations (epochs differ
// between a dead leader and its successors, but the work is the same).
type stepKey struct {
	path    int
	attempt int
	action  string
}

func newExecution(x *Explorer, ch chooser) (*execution, error) {
	return newExecutionChurn(x, ch, nil)
}

// newExecutionChurn builds an execution; a non-nil churn plan interposes
// the hot-standby replication plane (and arms its leader crash) before the
// first manager incarnation is created, so the leader journals through
// the replica tee from its very first record.
func newExecutionChurn(x *Explorer, ch chooser, cp *churnPlan) (*execution, error) {
	reg := x.m.Invariants.Registry()
	e := &execution{
		x:           x,
		m:           x.m,
		ch:          ch,
		reg:         reg,
		clock:       simnet.NewManualClock(time.Unix(0, 0).UTC()),
		procs:       make(map[string]*vproc),
		procNames:   reg.Processes(),
		agents:      make(map[string]*agent.Agent),
		flows:       make([][]packet, len(x.m.Flows)),
		packetsLeft: x.opts.MaxPackets,
		faultsLeft:  x.opts.MaxFaults,
		crashed:     make(map[string]bool),
		ponr:        make(map[waveKey]bool),
		resumed:     make(map[stepKey]bool),
		ccsExempt:   make(map[ccs.CID]bool),
		journal:     journal.NewMem(),
	}
	segs, err := ccs.NewSegments([]string{"send", "recv"})
	if err != nil {
		return nil, err
	}
	e.checker = ccs.NewChecker(segs)

	for _, pn := range e.procNames {
		comps := make(map[string]bool)
		for _, c := range reg.Components() {
			if c.Process == pn && reg.Contains(x.m.Source, c.Name) {
				comps[c.Name] = true
			}
		}
		e.procs[pn] = &vproc{e: e, name: pn, comps: comps}
	}
	procOf := func(component string) string {
		p, _ := reg.ProcessOf(component)
		return p
	}
	if x.m.FleetFanout > 0 {
		topo, terr := fleet.NewTopology(append([]string(nil), e.procNames...), x.m.FleetFanout)
		if terr != nil {
			return nil, terr
		}
		e.topo = topo
		e.net = simnet.New(e, topo)
		e.coords = make(map[string]*fleet.Coordinator, len(topo.Coords))
		for _, c := range topo.Coords {
			if cerr := e.startCoord(c.Name); cerr != nil {
				return nil, cerr
			}
		}
	} else {
		e.net = simnet.New(e, nil)
	}
	for _, pn := range e.procNames {
		// In fleet mode an agent's only physical connection is its uplink
		// to its leaf coordinator, whatever a reply's To says.
		ag, err := agent.New(pn, e.net.Up(pn), e.procs[pn], agent.Options{
			ResetTimeout: x.opts.StepTimeout,
			ProcessOf:    procOf,
			Clock:        e.clock,
		})
		if err != nil {
			return nil, err
		}
		e.agents[pn] = ag
		e.net.Attach(pn, ag)
	}
	if cp != nil {
		if err := e.setupChurn(cp); err != nil {
			return nil, err
		}
	}
	e.mgr, err = e.newManager()
	if err != nil {
		return nil, err
	}
	return e, nil
}

// startCoord builds — or, after an injected crash, replaces — the named
// coordinator as a fresh stateless instance over the virtual links.
func (e *execution) startCoord(name string) error {
	c, ok := e.topo.Coord(name)
	if !ok {
		return fmt.Errorf("explore: unknown coordinator %q", name)
	}
	k, err := fleet.NewCoordinator(fleet.Options{
		Name:   c.Name,
		Parent: c.Parent,
		// Aggregated acks and raw forwards go one hop up; commands are
		// relayed one hop down as frames of their own (the plain port: the
		// explorer does not model the hub's re-batching).
		Up:        e.net.Up(c.Name),
		Down:      e.net.Down(c.Name),
		Telemetry: e.x.tel,
		// Fold any observability-plane reports the schedule delivers
		// instead of relaying them raw; a crash-replaced coordinator
		// restarts with empty fold state, like its ack buckets.
		Rollup: fleetobs.NewShardRollup(fleetobs.RollupOptions{
			Name:      c.Name,
			Parent:    c.Parent,
			Children:  append([]string(nil), c.Children...),
			Telemetry: e.x.tel,
		}),
	})
	if err != nil {
		return err
	}
	e.coords[name] = k
	e.net.AttachRelay(name, k)
	return nil
}

// newManager builds one manager incarnation over the execution's shared
// journal and virtual transport. The first incarnation is built here by
// newExecution; after an injected crash, recoverManager builds successors
// with the same call, and the shared journal hands each the next epoch.
func (e *execution) newManager() (*manager.Manager, error) {
	var jrn journal.Journal = e.journal
	if e.tee != nil {
		// Churn mode: the leader journals through the replica tee, so every
		// committed record reaches the in-process standbys synchronously.
		jrn = e.tee
	}
	return e.newManagerOver(jrn, 0)
}

// armCrash arms the crash fault for this execution. With cp.coord set, the
// named fleet coordinator dies (and is instantly replaced by a fresh
// stateless instance) at the cp.after-th manager journal record boundary.
// Otherwise the manager process itself dies at that boundary — or, with
// cp.midSync, during the fsync following it, losing the unsynced tail.
func (e *execution) armCrash(cp crashPlan) {
	if cp.coord != "" {
		e.journal.AppendHook = func(journal.Record) error {
			if e.journal.Appends() == cp.after {
				e.crashCoord(cp.coord)
			}
			return nil
		}
		return
	}
	if cp.midSync {
		e.journal.AppendHook = func(journal.Record) error {
			if e.journal.Appends() == cp.after {
				e.journal.FailNextSync()
			}
			return nil
		}
		return
	}
	e.journal.CrashAfterAppends(cp.after)
}

// crashCoord kills the named coordinator and instantly replaces it with a
// fresh stateless instance — the fleet design's recovery story. Frames in
// flight on its links die with its connections, its aggregation buckets
// and learned fencing epoch are gone, and the manager's timeout ladder
// must re-drive whatever wave was in progress. Unlike agent crashes,
// every safety property stays fully armed: surviving coordinator loss is
// exactly what the stateless design claims.
func (e *execution) crashCoord(name string) {
	if e.coords[name] == nil {
		return
	}
	e.coordCrashes++
	e.logf("fault: coordinator %s crashes and restarts stateless (%d journal records appended)", name, e.journal.Appends())
	e.pending = slices.DeleteFunc(e.pending, func(w simnet.Frame) bool {
		return w.From == name || w.To == name
	})
	if err := e.startCoord(name); err != nil {
		// Construction already succeeded once in newExecution; unreachable.
		panic(fmt.Sprintf("explore: restart coordinator %s: %v", name, err))
	}
}

// run executes the adaptation to its terminal state — recovering from
// injected manager crashes along the way — and performs the terminal
// checks.
func (e *execution) run() {
	res, err := e.mgr.Execute(e.m.Source, e.m.Target)
	for errors.Is(err, journal.ErrCrashed) {
		if e.mgrCrashes++; e.mgrCrashes > 3 {
			// Faults are disarmed on Reopen, so repeated crashes mean the
			// fault model leaked; surface it rather than spin.
			e.violate("livelock", "manager crashed more than 3 times in one execution")
			break
		}
		if e.churn != nil {
			res, err = e.takeover()
			continue
		}
		res, err = e.recoverManager()
	}
	e.finish(res, err)
}

// recoverManager models the death of the manager process at a journal
// record boundary and the takeover by a successor: the predecessor's
// unread inbox dies with its sockets, engaged agents may notice the
// silence first (lease expiry is a scheduling choice per agent), and a
// fresh incarnation replays the journal and recovers under the next
// epoch. Safety checking stays fully armed throughout — unlike agent
// crashes, manager crashes are exactly what the journal protocol claims
// to survive.
func (e *execution) recoverManager() (manager.Result, error) {
	e.logf("fault: manager crashes at a journal record boundary (%d records appended)", e.journal.Appends())
	e.deadMgrs = append(e.deadMgrs, e.mgr)
	// Replies in flight toward the dead incarnation are lost with it; its
	// own in-flight commands stay in the network as stragglers the agents
	// must handle (and, across the epoch bump, fence).
	e.purgePendingTo(protocol.ManagerName)
	e.expireLeaseChoices()
	e.journal.Reopen()
	mgr, err := e.newManager()
	if err != nil {
		return manager.Result{}, err
	}
	e.mgr = mgr
	res, err := e.mgr.Recover(context.Background())
	if err == nil && !res.Completed && !res.ReturnedToSource {
		// The journal showed no in-flight adaptation: the request died with
		// the crashed manager before its first committed record, so the
		// operator re-submits it to the successor.
		e.logf("recovery: journal empty of in-flight work; resubmitting the request")
		res, err = e.mgr.Execute(e.m.Source, e.m.Target)
	}
	return res, err
}

// expireLeaseChoices lets each agent holding a step see its liveness
// lease lapse before a successor manager shows up — a scheduling choice
// per agent, so sweeps cover both self-recovery and
// probe-finds-agent-mid-step interleavings.
func (e *execution) expireLeaseChoices() {
	for _, pn := range e.procNames {
		if e.crashed[pn] || e.agents[pn].State() == agent.StateRunning {
			continue
		}
		if e.ch.choose(2) == 1 {
			e.logf("fault: %s's manager lease expires", pn)
			e.agents[pn].ExpireLease()
			e.checkRunningState()
		}
	}
}

func (e *execution) logf(format string, args ...any) {
	e.trace = append(e.trace, fmt.Sprintf(format, args...))
}

func (e *execution) violate(kind, detail string) {
	sched := append([]int(nil), e.ch.taken()...)
	for len(sched) > 0 && sched[len(sched)-1] == 0 {
		sched = sched[:len(sched)-1]
	}
	e.violations = append(e.violations, Violation{
		Kind:     kind,
		Detail:   detail,
		Schedule: sched,
		Trace:    append([]string(nil), e.trace...),
	})
}

// Admit is the send-side half of the choice policy: it sees every message
// a port is asked to send, one by one, before a wave is packed into
// envelopes. The manager's commands feed the point-of-no-return ledger,
// and a message for a crashed process dies with that process's sockets.
func (e *execution) Admit(port string, msg protocol.Message) bool {
	verb := "relay"
	if port == protocol.ManagerName {
		e.noteCommand(msg)
		verb = "send"
	}
	if e.crashed[msg.To] {
		e.logf("%s %s -> %s: receiver crashed, dropped", verb, msg.Type, msg.To)
		return false
	}
	return true
}

// Submit queues one frame on its virtual link, where it waits for the
// scheduler to choose its fate. Dropping an envelope later (chDrop)
// models the loss of a whole batched frame.
func (e *execution) Submit(f simnet.Frame) {
	e.pending = append(e.pending, f)
}

// noteCommand tracks the point of no return per step attempt and flags
// rollbacks sent after it — before the command is (possibly) wrapped into
// a fleet envelope, so the check sees every inner message. The ledger is
// keyed by sending epoch: within one incarnation the send ordering is the
// journal discipline itself, while across incarnations (racing takeover
// candidates re-deriving the same deterministic plan re-use attempt
// numbers by design) only the ground truth matters — vproc.Rollback
// checks that against the execution-wide `resumed` ledger.
func (e *execution) noteCommand(msg protocol.Message) {
	key := waveKey{epoch: msg.Epoch, path: msg.Step.PathIndex, attempt: msg.Step.Attempt, action: msg.Step.ActionID}
	//safeadaptvet:ignore-msg MsgReset MsgResetDone MsgResetFailed MsgAdaptDone MsgAdaptFailed MsgResumeDone MsgRollbackDone MsgProbe MsgProbeAck MsgHello MsgHeartbeat MsgBatch MsgMetricReport -- the rollback-after-resume invariant ledger tracks only the two kinds that define the point of no return; every other kind is irrelevant to this safety property and is delivered by the explorer regardless
	switch msg.Type {
	case protocol.MsgResume:
		e.ponr[key] = true
	case protocol.MsgRollback:
		if e.ponr[key] {
			e.violate("rollback-after-resume", fmt.Sprintf(
				"rollback for step %s (path %d attempt %d) sent after that attempt's first resume under epoch %d",
				msg.Step.ActionID, msg.Step.PathIndex, msg.Step.Attempt, msg.Epoch))
		}
	}
}

// Recv is the scheduler loop, entered whenever the manager blocks in a
// protocol wait: while it does, the explorer delivers frames, steps
// agents and injects faults, all on the manager's own goroutine. It
// applies chosen events until one resolves the wait: a manager-bound
// delivery (RecvOK) or a timeout (forced when nothing is deliverable,
// injected as a fault otherwise).
func (e *execution) Recv(ctx context.Context, deadline time.Time) (protocol.Message, transport.RecvStatus) {
	for {
		if ctx.Err() != nil {
			return protocol.Message{}, transport.RecvAborted
		}
		if e.livelocked {
			return protocol.Message{}, transport.RecvClosed
		}
		cs := e.choicesNow()
		if len(cs) == 0 {
			e.clock.AdvanceTo(deadline)
			e.logf("timeout: nothing deliverable")
			return protocol.Message{}, transport.RecvTimeout
		}
		e.events++
		if e.events > e.x.opts.MaxEvents {
			e.livelocked = true
			e.violate("livelock", fmt.Sprintf("execution exceeded %d events without terminating", e.x.opts.MaxEvents))
			return protocol.Message{}, transport.RecvClosed
		}
		c := cs[e.ch.choose(len(cs))]
		e.clock.Advance(time.Millisecond)
		switch c.kind {
		case chMgrRecv:
			w := e.takePending(c.from, protocol.ManagerName)
			e.logf("deliver %q %s -> manager", w.Msg.Type.String(), c.from)
			return w.Msg, transport.RecvOK
		case chCoordRecv:
			w := e.takePending(c.from, c.to)
			dir := "up"
			if w.Down {
				dir = "down"
			}
			e.logf("deliver %q %s -> %s (%s)", w.Msg.Type.String(), c.from, c.to, dir)
			e.net.Deliver(w)
		case chAgentRecv:
			w := e.takePending(c.from, c.to)
			e.logf("deliver %q -> %s", w.Msg.Type.String(), c.to)
			e.net.Deliver(w)
		case chAppDeliver:
			pk := e.flows[c.flow][0]
			e.flows[c.flow] = e.flows[c.flow][1:]
			e.deliverPacket(c.flow, pk)
		case chEmit:
			e.emit(c.sender)
		case chTimeout:
			e.faultsLeft--
			e.clock.AdvanceTo(deadline)
			e.logf("fault: manager wait times out")
			return protocol.Message{}, transport.RecvTimeout
		case chDrop:
			w := e.takePending(c.from, c.to)
			e.faultsLeft--
			e.logf("fault: drop %q %s -> %s", w.Msg.Type.String(), c.from, c.to)
		case chFailReset:
			w := e.takePending(c.from, c.to)
			e.faultsLeft--
			e.procs[c.to].stuck = true
			e.logf("fault: %s fails to reset", c.to)
			e.net.Deliver(w)
		case chCrash:
			w := e.takePending(c.from, c.to)
			e.faultsLeft--
			e.crashed[c.to] = true
			e.anyCrash = true
			e.purgePendingTo(c.to)
			e.logf("fault: %s crashes on receipt of %q", c.to, w.Msg.Type.String())
		}
		e.checkRunningState()
	}
}

// choicesNow enumerates the scheduling alternatives in canonical order:
// protocol deliveries to the manager, deliveries to fleet coordinators,
// deliveries to agents, application deliveries, emission, then faults.
// Alternative 0 is therefore always a fault-free choice.
func (e *execution) choicesNow() []choice {
	var cs []choice

	// Head-of-queue protocol message per virtual link — the network is
	// FIFO per link, like the real transports' per-connection streams.
	type pair struct{ from, to string }
	seen := make(map[pair]bool)
	var mgrHeads, coordHeads, agHeads []choice
	var dropHeads, failHeads, crashHeads []choice
	for _, w := range e.pending {
		p := pair{w.From, w.To}
		if seen[p] {
			continue
		}
		seen[p] = true
		switch {
		case w.To == protocol.ManagerName:
			mgrHeads = append(mgrHeads, choice{kind: chMgrRecv, from: w.From, to: w.To})
		case e.coords[w.To] != nil:
			coordHeads = append(coordHeads, choice{kind: chCoordRecv, from: w.From, to: w.To})
		default:
			agHeads = append(agHeads, choice{kind: chAgentRecv, from: w.From, to: w.To})
			if w.Msg.Type == protocol.MsgReset {
				failHeads = append(failHeads, choice{kind: chFailReset, from: w.From, to: w.To})
			}
			crashHeads = append(crashHeads, choice{kind: chCrash, from: w.From, to: w.To})
		}
		dropHeads = append(dropHeads, choice{kind: chDrop, from: w.From, to: w.To})
	}
	cs = append(cs, mgrHeads...)
	cs = append(cs, coordHeads...)
	cs = append(cs, agHeads...)

	for i, f := range e.m.Flows {
		if len(e.flows[i]) == 0 {
			continue
		}
		r := e.procs[f.To]
		if r.blocked || e.crashed[f.To] {
			continue
		}
		cs = append(cs, choice{kind: chAppDeliver, flow: i})
	}

	if e.packetsLeft > 0 {
		emitted := make(map[string]bool)
		for _, f := range e.m.Flows {
			if emitted[f.From] {
				continue
			}
			emitted[f.From] = true
			s := e.procs[f.From]
			if s.blocked || e.crashed[f.From] {
				continue
			}
			if _, ok := e.encoderKey(s); ok {
				cs = append(cs, choice{kind: chEmit, sender: f.From})
			}
		}
	}

	if e.faultsLeft > 0 {
		if len(cs) > 0 {
			// An injected timeout only makes sense while something else
			// could have happened; the bare-queue case is forced anyway.
			cs = append(cs, choice{kind: chTimeout})
		}
		cs = append(cs, dropHeads...)
		cs = append(cs, failHeads...)
		cs = append(cs, crashHeads...)
	}
	return cs
}

// takePending removes and returns the oldest pending message on the
// from→to link.
func (e *execution) takePending(from, to string) simnet.Frame {
	for i, w := range e.pending {
		if w.From == from && w.To == to {
			e.pending = append(e.pending[:i], e.pending[i+1:]...)
			return w
		}
	}
	// Unreachable while enumeration and application agree.
	panic(fmt.Sprintf("explore: no pending message %s -> %s", from, to))
}

// purgePendingTo drops every wire riding a link into the named endpoint —
// what dies with that endpoint's sockets.
func (e *execution) purgePendingTo(to string) {
	e.pending = slices.DeleteFunc(e.pending, func(w simnet.Frame) bool { return w.To == to })
}

// encoderKey returns the key the process would emit with, requiring
// exactly one encoder component (the security invariant's oneof).
// Component iteration follows registry order for determinism.
func (e *execution) encoderKey(p *vproc) (string, bool) {
	var key string
	n := 0
	for _, c := range e.reg.Components() {
		if p.comps[c.Name] {
			if k, ok := e.m.Encodes[c.Name]; ok {
				key = k
				n++
			}
		}
	}
	return key, n == 1
}

func (e *execution) emit(sender string) {
	key, ok := e.encoderKey(e.procs[sender])
	if !ok {
		return
	}
	e.packetsLeft--
	for i, f := range e.m.Flows {
		if f.From != sender {
			continue
		}
		e.nextCID++
		cid := e.nextCID
		e.flows[i] = append(e.flows[i], packet{cid: cid, key: key})
		e.checker.Record(ccs.Event{CID: cid, Action: "send"})
		e.logf("%s emits packet %d (key %s) -> %s", sender, cid, key, f.To)
	}
}

// deliverPacket decodes one packet at its flow's receiver; an
// undecodable packet is a cut critical communication segment.
func (e *execution) deliverPacket(flow int, pk packet) {
	r := e.m.Flows[flow].To
	if comp, ok := e.decoderFor(r, pk.key); ok {
		e.checker.Record(ccs.Event{CID: pk.cid, Action: "recv"})
		e.logf("%s decodes packet %d (key %s) with %s", r, pk.cid, pk.key, comp)
		return
	}
	e.ccsExempt[pk.cid] = true // already reported; skip the terminal re-check
	e.violate("ccs", fmt.Sprintf(
		"packet %d (key %s) undecodable at %s (components %s): critical communication segment cut",
		pk.cid, pk.key, r, strings.Join(e.componentsOf(r), ",")))
}

func (e *execution) decoderFor(process, key string) (string, bool) {
	p := e.procs[process]
	for _, c := range e.reg.Components() {
		if !p.comps[c.Name] {
			continue
		}
		for _, k := range e.m.Decodes[c.Name] {
			if k == key {
				return c.Name, true
			}
		}
	}
	return "", false
}

func (e *execution) componentsOf(process string) []string {
	var out []string
	for _, c := range e.reg.Components() {
		if e.procs[process].comps[c.Name] {
			out = append(out, c.Name)
		}
	}
	return out
}

// groundTruth assembles the actual running configuration from the
// virtual processes' component sets.
func (e *execution) groundTruth() model.Config {
	var names []string
	for _, pn := range e.procNames {
		names = append(names, e.componentsOf(pn)...)
	}
	cfg, err := e.reg.ConfigOf(names...)
	if err != nil {
		// Components only move via registry-validated ops; unreachable.
		panic(fmt.Sprintf("explore: ground truth: %v", err))
	}
	return cfg
}

// checkRunningState verifies the paper's central safety claim after
// every event: whenever every process runs unblocked, the configuration
// they form satisfies all dependency invariants. Crashed executions are
// exempt — the paper's failure model does not cover process crashes.
func (e *execution) checkRunningState() {
	if e.anyCrash {
		return
	}
	for _, pn := range e.procNames {
		if e.procs[pn].blocked {
			return
		}
	}
	cfg := e.groundTruth()
	if !e.m.Invariants.Satisfied(cfg) {
		var broken []string
		for _, inv := range e.m.Invariants.Violations(cfg) {
			broken = append(broken, inv.String())
		}
		e.violate("invariant", fmt.Sprintf(
			"all processes running but configuration %s violates: %s",
			e.reg.BitVector(cfg), strings.Join(broken, "; ")))
	}
}

// finish performs the terminal checks once the manager's Execute
// returned: flush in-flight packets, close the CCS ledger, check for
// deadlock and belief divergence, and audit all recorded traces.
func (e *execution) finish(res manager.Result, err error) {
	for i := range e.m.Flows {
		r := e.m.Flows[i].To
		for _, pk := range e.flows[i] {
			if e.crashed[r] || e.procs[r].blocked {
				// Undeliverable: exempt from the CCS check unless the run
				// claimed success — then the deadlock check below reports
				// the stuck process itself.
				e.ccsExempt[pk.cid] = true
				continue
			}
			e.deliverPacket(i, pk)
		}
		e.flows[i] = nil
	}
	for _, v := range e.checker.Check() {
		if e.ccsExempt[v.CID] {
			continue
		}
		e.violate("ccs", v.String())
	}

	if err == nil && !e.anyCrash {
		for _, pn := range e.procNames {
			if e.procs[pn].blocked {
				e.violate("deadlock", fmt.Sprintf("process %s left blocked after a successful adaptation", pn))
			}
			if st := e.agents[pn].State(); st != agent.StateRunning {
				e.violate("deadlock", fmt.Sprintf("agent %s left in state %s after a successful adaptation", pn, st))
			}
		}
		if gt := e.groundTruth(); gt != res.Final {
			e.violate("belief", fmt.Sprintf(
				"manager believes the system is at %s but the ground truth is %s",
				e.reg.BitVector(res.Final), e.reg.BitVector(gt)))
		}
	}

	for _, issue := range audit.ManagerTrace(e.mgr.Trace()) {
		e.violate("audit", issue.String())
	}
	// Crashed incarnations stopped mid-protocol, but every transition they
	// did make must still be a drawn Fig. 2 arc.
	for i, dm := range e.deadMgrs {
		for _, issue := range audit.ManagerTrace(dm.Trace()) {
			e.violate("audit", fmt.Sprintf("crashed manager %d: %s", i+1, issue.String()))
		}
	}
	for _, pn := range e.procNames {
		for _, issue := range audit.AgentTrace(e.agents[pn].Trace()) {
			e.violate("audit", fmt.Sprintf("%s: %s", pn, issue.String()))
		}
	}
	for _, issue := range audit.Result(e.reg, res, e.m.Target) {
		e.violate("audit", issue.String())
	}
}
