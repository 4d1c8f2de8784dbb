// Package protocol defines the message vocabulary exchanged between the
// adaptation manager and the per-process adaptation agents (paper Sec. 4.3,
// Figs. 1–2), and the wire codec for transports that need one: a
// length-prefixed binary frame whose layout is one table of fields per
// message kind (codec.go), over primitives the journal and the replication
// stream share (wire.go).
package protocol

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/action"
	"repro/internal/telemetry"
)

// MsgType enumerates the protocol messages. The Courier-font names in the
// paper's figures map 1:1 onto these values.
type MsgType int

const (
	// MsgReset instructs an agent to drive its process to a (locally and
	// globally) safe state and block it. Carries the Step.
	MsgReset MsgType = iota + 1
	// MsgResetDone reports that the agent's process is held in a safe
	// state ("reset done").
	MsgResetDone
	// MsgResetFailed reports a fail-to-reset failure: the process could
	// not reach a safe state in time (Sec. 4.4).
	MsgResetFailed
	// MsgAdaptDone reports that the agent's local in-action completed
	// ("adapt done").
	MsgAdaptDone
	// MsgAdaptFailed reports that the local in-action could not be
	// performed.
	MsgAdaptFailed
	// MsgResume instructs an agent to resume its process' full operation.
	MsgResume
	// MsgResumeDone reports that full operation is restored
	// ("resume done").
	MsgResumeDone
	// MsgRollback instructs an agent to undo the step (inverse in-action
	// if it was applied) and resume the process in its pre-step state.
	MsgRollback
	// MsgRollbackDone acknowledges a completed rollback.
	MsgRollbackDone
	// MsgHello registers an agent with the manager on connection-oriented
	// transports.
	MsgHello
	// MsgHeartbeat renews an agent's liveness lease on the manager. It is
	// sent periodically by the manager; any admitted (non-fenced) manager
	// message also renews the lease.
	MsgHeartbeat
	// MsgProbe asks an agent to report its local adaptation state; sent by
	// a recovering manager to re-establish ground truth (and, carrying the
	// new epoch, fences the crashed manager in the same round trip).
	MsgProbe
	// MsgProbeAck answers a probe; Probe carries the agent's report.
	MsgProbeAck
	// MsgBatch is a transport-level envelope: one length-prefixed frame
	// carrying a slice of per-agent messages for one child link, the unit
	// of the fleet plane's batched wave fan-out. It is opened by the
	// receiving hop (a fleet coordinator or mux endpoint) and its contents
	// delivered individually; it never reaches the manager or agent state
	// machines themselves.
	MsgBatch
	// MsgMetricReport carries one interval's mergeable telemetry digest
	// upward through the fleet tree: an agent emits its own deltas, each
	// coordinator folds its shard's reports into one (mirroring the
	// aggregated acks), and the root receives O(fan-out) reports per
	// interval instead of O(n). Like every protocol message it carries the
	// sender's fencing epoch and causal trace context.
	MsgMetricReport
)

// String returns the paper's name for the message type.
func (t MsgType) String() string {
	switch t {
	case MsgReset:
		return "reset"
	case MsgResetDone:
		return "reset done"
	case MsgResetFailed:
		return "reset failed"
	case MsgAdaptDone:
		return "adapt done"
	case MsgAdaptFailed:
		return "adapt failed"
	case MsgResume:
		return "resume"
	case MsgResumeDone:
		return "resume done"
	case MsgRollback:
		return "rollback"
	case MsgRollbackDone:
		return "rollback done"
	case MsgHello:
		return "hello"
	case MsgHeartbeat:
		return "heartbeat"
	case MsgProbe:
		return "probe"
	case MsgProbeAck:
		return "probe ack"
	case MsgBatch:
		return "batch"
	case MsgMetricReport:
		return "metric report"
	default:
		return fmt.Sprintf("MsgType(%d)", int(t))
	}
}

// Step describes one adaptation step (one edge of the safe adaptation
// path) to the participating agents.
type Step struct {
	// PathIndex is the zero-based position of the step on the adaptation
	// path.
	PathIndex int `json:"pathIndex"`
	// Attempt distinguishes retries of the same step; agents deduplicate
	// on (PathIndex, Attempt).
	Attempt int `json:"attempt"`
	// ActionID identifies the adaptive action, e.g. "A2".
	ActionID string `json:"actionID"`
	// Ops are the primitive operations of the action. Each agent executes
	// the subset whose components it hosts.
	Ops []action.Op `json:"ops"`
	// Participants are the process names involved in the step. An agent
	// that sees itself as the only participant may resume directly after
	// its in-action (Fig. 1's single-process shortcut).
	Participants []string `json:"participants"`
	// ResetPhases orders the reset wave: agents in phase k+1 receive
	// reset only after every agent in phase k reported reset done. This
	// realizes global safe conditions such as "the receiver has received
	// all the datagram packets that the sender has sent" by quiescing
	// upstream processes first.
	ResetPhases [][]string `json:"resetPhases,omitempty"`
	// FromVector and ToVector are the step's source and target
	// configurations in bit-vector notation, for diagnostics.
	FromVector string `json:"fromVector"`
	ToVector   string `json:"toVector"`
}

// Key returns the step's compact identity "pathIndex/attempt" — the label
// used by telemetry events and flight-recorder records to correlate the
// messages of one step across nodes.
func (s Step) Key() string { return fmt.Sprintf("%d/%d", s.PathIndex, s.Attempt) }

// OpsFor returns the operations whose components are hosted on the named
// process, according to the component→process table supplied. When every
// operation is, that is s.Ops itself with cap == len, shared like the rest
// of the step; otherwise a filtered copy.
func (s Step) OpsFor(process string, processOf func(component string) string) []action.Op {
	local := func(op action.Op) bool {
		name := op.Old
		if name == "" {
			name = op.New
		}
		return processOf(name) == process
	}
	for i, op := range s.Ops {
		if local(op) {
			continue
		}
		out := append([]action.Op(nil), s.Ops[:i]...)
		for _, op := range s.Ops[i+1:] {
			if local(op) {
				out = append(out, op)
			}
		}
		return out
	}
	return slices.Clip(s.Ops)
}

// Message is one manager↔agent protocol message.
type Message struct {
	// Type is the message type.
	Type MsgType `json:"type"`
	// From and To are endpoint names ("manager" or a process name).
	From string `json:"from"`
	To   string `json:"to"`
	// Step is present on MsgReset and echoed (PathIndex/Attempt/ActionID)
	// on agent replies so the manager can discard stale responses.
	Step Step `json:"step"`
	// Error carries failure detail on MsgResetFailed / MsgAdaptFailed.
	Error string `json:"error,omitempty"`
	// Epoch is the manager incarnation that (directly or transitively)
	// produced this message. Agents fence: a message whose epoch is below
	// the highest they have seen is dropped, so a crashed manager's
	// stragglers cannot interfere with its successor; agent replies echo
	// the epoch they are acting under. Epoch 0 means "unfenced" and is
	// always admitted, preserving compatibility with managers that predate
	// journaling.
	Epoch uint64 `json:"epoch,omitempty"`
	// Trace is the causal trace context propagated with the message; the
	// zero value means the sender was not tracing.
	Trace TraceContext `json:"trace"`
	// Probe is the agent state report on MsgProbeAck.
	Probe *ProbeInfo `json:"probe,omitempty"`
	// Batch carries the enclosed per-agent messages on MsgBatch. When the
	// envelope's Step is set, enclosed messages with a zero Step share it
	// (PackBatch hoists a common step out of the batch so a 4096-agent wave
	// frame does not repeat the participant list 4096 times).
	Batch []Message `json:"batch,omitempty"`
	// Agents, on an acknowledgement sent by a fleet coordinator, lists the
	// agents the ack aggregates: one upstream "reset done" with Agents
	// {a,b,c} credits all three, which is what makes the hierarchical
	// plane O(fan-out) per hop instead of O(n) at the root. Sorted, so the
	// message is deterministic for replay.
	Agents []string `json:"agents,omitempty"`
	// Report is the rollup payload on MsgMetricReport.
	Report *MetricReport `json:"report,omitempty"`
}

// PackBatch wraps msgs (all addressed to agents reachable via one child
// link) into a single MsgBatch envelope addressed to that link. When every
// enclosed message carries the same step, the step is hoisted onto the
// envelope and cleared from the enclosed messages, keeping wave frames
// O(participants) instead of O(participants²) on the wire; UnpackBatch
// reverses the hoist. The envelope carries the first message's epoch and
// trace so fencing and causality survive the relay hop intact.
func PackBatch(to string, msgs []Message) Message {
	env := Message{Type: MsgBatch, To: to, Batch: msgs}
	if len(msgs) == 0 {
		return env
	}
	env.Epoch = msgs[0].Epoch
	env.Trace = msgs[0].Trace
	shared := msgs[0].Step
	if shared.ActionID == "" {
		return env
	}
	for _, m := range msgs[1:] {
		if !stepEqual(m.Step, shared) {
			return env
		}
	}
	env.Step = shared
	hoisted := make([]Message, len(msgs))
	for i, m := range msgs {
		m.Step = Step{}
		hoisted[i] = m
	}
	env.Batch = hoisted
	return env
}

// UnpackBatch returns the messages enclosed in a MsgBatch envelope,
// re-attaching a hoisted step to enclosed messages that carry none. For a
// non-batch message it returns a one-element slice, so relay loops can
// treat both shapes uniformly.
func UnpackBatch(env Message) []Message {
	if env.Type != MsgBatch {
		return []Message{env}
	}
	out := make([]Message, len(env.Batch))
	for i, m := range env.Batch {
		if m.Step.ActionID == "" && env.Step.ActionID != "" {
			m.Step = env.Step
		}
		out[i] = m
	}
	return out
}

// stepEqual compares steps by identity and shape without comparing the
// (unexported-to-JSON, slice-typed) op and participant lists element-wise;
// two steps from the same wave share backing slices, so identity fields
// are the discriminator that matters for hoisting.
func stepEqual(a, b Step) bool {
	return a.PathIndex == b.PathIndex && a.Attempt == b.Attempt && a.ActionID == b.ActionID &&
		a.FromVector == b.FromVector && a.ToVector == b.ToVector
}

// MetricReport is the payload of one MsgMetricReport: the mergeable
// telemetry digest of one node (an agent's own interval deltas) or of a
// whole shard (a coordinator's fold of its children's reports for one
// interval). Everything in it is deterministic for replay: Agents is
// sorted, Slowest is sorted by descending latency with name tie-breaks,
// and the digest's JSON encoding is canonical.
type MetricReport struct {
	// Interval is the emission interval sequence number. Coordinators fold
	// reports interval by interval, so skew between shards never mixes two
	// intervals into one upstream report.
	Interval uint64 `json:"interval"`
	// Agents lists the agents the digest covers, sorted. A leaf emitter
	// reports just itself; each fold unions its children's coverage, so
	// the root can tell a full shard report from a straggling partial one.
	Agents []string `json:"agents,omitempty"`
	// Slowest is the shard's top-k slowest agents by their reported ack
	// latency (descending, ties broken by name, capped at SlowestCap).
	// Top-k lists are mergeable: concatenate, re-sort, truncate.
	Slowest []AgentLatency `json:"slowest,omitempty"`
	// Digest is the mergeable metric payload: counter deltas over the
	// interval, instantaneous gauges, histogram sketches.
	Digest telemetry.Digest `json:"digest"`
}

// SlowestCap bounds the Slowest list at every fold level, keeping report
// frames O(fan-out + k) regardless of shard size.
const SlowestCap = 8

// AgentLatency is one entry of a report's top-k slowest list.
type AgentLatency struct {
	Agent string `json:"agent"`
	Nanos int64  `json:"nanos"`
}

// MergeSlowest folds two top-k lists: concatenate, sort by descending
// latency (names ascending on ties, so equal inputs fold identically in
// any order), truncate to SlowestCap.
func MergeSlowest(a, b []AgentLatency) []AgentLatency {
	out := make([]AgentLatency, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Nanos != out[j].Nanos {
			return out[i].Nanos > out[j].Nanos
		}
		return out[i].Agent < out[j].Agent
	})
	if len(out) > SlowestCap {
		out = out[:SlowestCap]
	}
	return out
}

// ProbeInfo is an agent's answer to MsgProbe: enough of its local state
// for a recovering manager to decide whether the in-flight step must be
// completed or rolled back, and to detect disagreement it cannot resolve.
type ProbeInfo struct {
	// State is the agent's current Fig. 1 state name ("running",
	// "resetting", "safe", "adapted", "resuming").
	State string `json:"state"`
	// Step identifies the step the agent is holding, if any.
	Step *Step `json:"step,omitempty"`
	// LastDone identifies the most recent step the agent completed (resumed
	// after), letting recovery recognize an agent that already finished the
	// in-flight step.
	LastDone *Step `json:"lastDone,omitempty"`
	// AdaptDone reports that the agent performed its local in-action for
	// Step (it has passed the adapt barrier and may no longer roll back
	// unilaterally).
	AdaptDone bool `json:"adaptDone,omitempty"`
}

// TraceContext is the compact causal context piggybacked on every protocol
// message when telemetry is active: which adaptation the message belongs
// to, which span on which node caused it, and the sender's Lamport time.
// Receivers merge Lamport into their clock (max+1), adopt TraceID, and
// parent their spans under (Origin, SpanID) — so one adaptation forms one
// trace across all nodes, over any transport.
type TraceContext struct {
	// TraceID names the adaptation (one ID per Manager.Execute call).
	TraceID string `json:"traceID,omitempty"`
	// SpanID is the sender-side span that caused this message; 0 if none.
	SpanID uint64 `json:"spanID,omitempty"`
	// Origin is the node owning SpanID (needed because span IDs are only
	// unique per process).
	Origin string `json:"origin,omitempty"`
	// Lamport is the sender's Lamport clock at send time.
	Lamport uint64 `json:"lamport,omitempty"`
}

// IsZero reports whether the context carries no information.
func (tc TraceContext) IsZero() bool { return tc == TraceContext{} }

// ManagerName is the conventional endpoint name of the adaptation manager.
const ManagerName = "manager"
