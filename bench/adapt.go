package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/journal"
	"repro/internal/protocol"
	"repro/internal/telemetry"
)

// meter reads the two process-wide costs the benchmark charges to a
// window of work: CPU time (user + system) and heap allocations.
type meter struct {
	cpu     time.Duration
	mallocs uint64
}

func readMeter() meter {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
	}
}

// add accumulates the cost since start.
func (m *meter) add(start meter) {
	now := readMeter()
	m.cpu += now.cpu - start.cpu
	m.mallocs += now.mallocs - start.mallocs
}

// adaptSamples is one measured window of adaptations on one deployment
// shape.
type adaptSamples struct {
	wall    []float64 // µs per adaptation
	blocked []float64 // µs per adaptation some process was held blocked
	steps   int
	cost    meter
	errs    []string
}

func (s *adaptSamples) failed() int { return len(s.errs) }

// adaptWorkload drives adapt_prod (journalDir set) and adapt_mem.
type adaptWorkload struct {
	prod bool
	c    config
	dir  string // journal directory of this instance (prod)

	// adapt_mem measures the nil-telemetry deployment in the first half of
	// the window and the live one in the second.
	d, live         *deployment
	samples, liveSm adaptSamples

	// Filled by finish on adapt_prod.
	problems   []string
	journalLen int64
	replayMs   float64
	captured   []protocol.Message
	msgsSent   int64
	msgsAdapts int
}

const (
	warmAdaptations = 200
	// adapt_mem renews its deployment this often: manager and agents keep
	// an unbounded transition trace, and at ~15k adaptations/s a long-lived
	// one would grow by a gigabyte in a run.
	recycleAdaptations = 5000
)

func (w *adaptWorkload) options(live bool) deployOptions {
	opts := deployOptions{t: w.c.t}
	if w.prod {
		opts.journalDir = w.dir
	}
	if live || w.prod {
		opts.tel = telemetry.NewRegistry()
	}
	return opts
}

func (w *adaptWorkload) setup(c config) error {
	w.c = c
	var err error
	if w.prod {
		if w.dir, err = os.MkdirTemp(c.journals, "journals-"); err != nil {
			return err
		}
	}
	if w.d, err = deploy(w.options(false)); err != nil {
		return err
	}
	if !w.prod {
		if w.live, err = deploy(w.options(true)); err != nil {
			return err
		}
	}
	for _, d := range []*deployment{w.d, w.live} {
		for i := 0; d != nil && i < warmAdaptations; i++ {
			if _, err := d.adapt(); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	w.d.resetCounters()
	if w.live != nil {
		w.live.resetCounters()
	}
	c.t.reset()
	return nil
}

// run adapts on *dp until the deadline, renewing the deployment as it
// ages; renewal happens outside the metered segments.
func (w *adaptWorkload) run(dp **deployment, live bool, s *adaptSamples, window time.Duration) error {
	deadline := time.Now().Add(window)
	for time.Now().Before(deadline) {
		start := readMeter()
		for n := 0; n < recycleAdaptations && time.Now().Before(deadline); n++ {
			a, err := (*dp).adapt()
			if err != nil {
				s.errs = append(s.errs, err.Error())
				continue
			}
			s.wall = append(s.wall, micros(a.wall))
			s.blocked = append(s.blocked, micros(a.blocked))
			s.steps += a.steps
		}
		s.cost.add(start)
		if w.prod || !time.Now().Before(deadline) {
			continue
		}
		w.noteMessages(*dp)
		(*dp).close()
		d, err := deploy(w.options(live))
		if err != nil {
			return err
		}
		*dp = d
	}
	return nil
}

func (w *adaptWorkload) noteMessages(d *deployment) {
	w.msgsSent += d.log.sent.Load()
	w.msgsAdapts += d.adapts
	if len(w.captured) == 0 {
		w.captured = d.log.captured
	}
}

func (w *adaptWorkload) measure() error {
	window := w.c.window
	if w.prod {
		return w.run(&w.d, false, &w.samples, window)
	}
	if err := w.run(&w.d, false, &w.samples, window/2); err != nil {
		return err
	}
	return w.run(&w.live, true, &w.liveSm, window/2)
}

// finish verifies the run's outputs and measures the journal's read side.
func (w *adaptWorkload) finish() {
	w.noteMessages(w.d)
	if !w.prod {
		w.noteMessages(w.live)
		return
	}
	w.problems = w.d.checkJournals()
	if err := w.replay(); err != nil {
		w.problems = append(w.problems, "reading the leader journal back: "+err.Error())
	}
}

// replayBytes of the leader's journal (some 10,000 records) are read back
// to time the journal's read side; the whole file would take seconds.
const replayBytes = 3 << 20

// replay times journal.ReadFile + Replay over the head of the log the run
// wrote, three times, and keeps the median per 10,000 records.
func (w *adaptWorkload) replay() error {
	info, err := os.Stat(w.d.leaderPath)
	if err != nil {
		return err
	}
	w.journalLen = info.Size()
	src, err := os.Open(w.d.leaderPath)
	if err != nil {
		return err
	}
	defer src.Close()
	head := filepath.Join(w.dir, "head.journal")
	dst, err := os.Create(head)
	if err != nil {
		return err
	}
	if _, err = io.CopyN(dst, src, replayBytes); err != nil && err != io.EOF {
		_ = dst.Close()
		return err
	}
	if err := dst.Close(); err != nil {
		return err
	}
	var perTenK []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		recs, _, err := journal.ReadFile(head) // the cut leaves a torn tail
		if err != nil {
			return err
		}
		st := journal.Replay(recs)
		elapsed := time.Since(start)
		if len(recs) == 0 || st.LastEpoch == 0 {
			return fmt.Errorf("%d records, last epoch %d", len(recs), st.LastEpoch)
		}
		perTenK = append(perTenK, micros(elapsed)/1e3*10000/float64(len(recs)))
	}
	w.replayMs = median(perTenK)
	return nil
}

func (w *adaptWorkload) close() {
	for _, d := range []*deployment{w.d, w.live} {
		if d != nil {
			d.close()
		}
	}
	if w.dir != "" {
		_ = os.RemoveAll(w.dir)
	}
}

func (w *adaptWorkload) verdict() (attempted, failed int, problems []string) {
	attempted = len(w.samples.wall) + len(w.liveSm.wall) + w.samples.failed() + w.liveSm.failed()
	failed = w.samples.failed() + w.liveSm.failed()
	problems = append(problems, w.problems...)
	for _, errs := range [][]string{w.samples.errs, w.liveSm.errs} {
		if len(errs) > 0 {
			problems = append(problems, fmt.Sprintf("%d adaptations failed, first: %s", len(errs), errs[0]))
		}
	}
	return attempted, failed, problems
}

func (w *adaptWorkload) primary() float64 { return median(w.samples.wall) }

func per(total float64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return total / float64(ops)
}

func (w *adaptWorkload) endToEnd() (map[string]metric, map[string]summary) {
	s := &w.samples
	n := len(s.wall)
	wall, blocked := summarize(s.wall), summarize(s.blocked)
	timings := map[string]summary{"adapt_us": wall, "blocked_us": blocked}
	m := map[string]metric{
		"cpu_us_per_adapt": {per(micros(s.cost.cpu), n), "us"},
		"allocs_per_adapt": {per(float64(s.cost.mallocs), n), "count"},
		"blocked_p50_us":   {blocked.P50, "us"},
		"blocked_p90_us":   {blocked.P90, "us"},
	}
	if w.prod {
		d := w.d
		m["adapt_p50_ms"] = metric{wall.P50 / 1e3, "ms"}
		m["adapt_p90_ms"] = metric{wall.P90 / 1e3, "ms"}
		m["fsyncs_per_adapt"] = metric{per(float64(d.leaderLog.syncs.Load()+d.standbyLog.syncs.Load()), n+s.failed()), "count"}
		m["recover_replay_ms"] = metric{w.replayMs, "ms"}
		return m, timings
	}
	live := summarize(w.liveSm.wall)
	timings["adapt_live_us"] = live
	m["adapt_p50_us"] = metric{wall.P50, "us"}
	m["adapt_p90_us"] = metric{wall.P90, "us"}
	m["adapt_live_p50_us"] = metric{live.P50, "us"}
	m["allocs_live_per_adapt"] = metric{per(float64(w.liveSm.cost.mallocs), len(w.liveSm.wall)), "count"}
	return m, timings
}

// layers reports what the traced wrappers saw, per adaptation. The *_us
// values marked "exclusive" partition manager.execute_us: each instant of
// an adaptation is charged to the innermost wrapper active at it, and
// manager.unattributed_us is what no wrapper covers.
func (w *adaptWorkload) layers() map[string]metric {
	t, s := w.c.t, &w.samples
	n := len(s.wall) + len(w.liveSm.wall)
	us := func(v float64) metric { return metric{v, "us"} }
	count := func(v float64) metric { return metric{v, "count"} }
	m := map[string]metric{
		"manager.execute_us":       us(t.perOpInclusive("manager.execute")),
		"manager.unattributed_us":  us(t.perOp("manager.execute")),
		"manager.steps_per_adapt":  count(per(float64(s.steps+w.liveSm.steps), n)),
		"transport.send_us":        us(t.perOp("transport.send")),
		"transport.msgs_per_adapt": count(per(float64(w.msgsSent), w.msgsAdapts)),
		"agent.reset_us":           us(t.perOp("agent.reset")),
		"agent.inaction_us":        us(t.perOp("agent.inaction")),
		"agent.resume_us":          us(t.perOp("agent.resume")),
	}
	dwell := append([]float64(nil), w.d.sink.all...)
	m["agent.blocked_dwell_ms"] = metric{mean(dwell) / 1e3, "ms"}
	for k, v := range codecLayers(w.captured, per(float64(w.msgsSent), w.msgsAdapts)) {
		m[k] = v
	}
	if !w.prod {
		nilN, liveN := len(s.wall), len(w.liveSm.wall)
		m["telemetry.overhead_us_per_adapt"] = us(median(w.liveSm.wall) - median(s.wall))
		m["telemetry.allocs_per_adapt"] = count(per(float64(w.liveSm.cost.mallocs), liveN) - per(float64(s.cost.mallocs), nilN))
		return m
	}
	d := w.d
	lag := 0
	if recs, err := d.leaderLog.Snapshot(); err == nil {
		if sb, err := d.standbyLog.Snapshot(); err == nil {
			lag = len(recs) - len(sb)
		}
	}
	m["journal.appends_per_adapt"] = count(per(float64(d.leaderLog.appends.Load()), n))
	m["journal.syncs_per_adapt"] = count(per(float64(d.leaderLog.syncs.Load()), n))
	m["journal.append_us"] = us(t.perOp("journal.append"))
	m["journal.sync_us"] = us(t.perOp("journal.sync"))
	m["journal.bytes_per_adapt"] = metric{per(float64(w.journalLen), w.d.adapts+warmAdaptations), "B"}
	m["journal.replay_us_per_krec"] = us(w.replayMs * 1e3 / 10)
	m["replica.commit_us"] = us(t.perOpInclusive("replica.commit"))
	m["replica.ack_wait_us"] = us(t.perOp("replica.commit", "replica.append"))
	m["replica.standby_append_us"] = us(t.perOp("replica.standby_append"))
	m["replica.standby_sync_us"] = us(t.perOp("replica.standby_sync"))
	m["replica.lag_records_at_end"] = count(float64(lag))
	return m
}

// codecLayers replays captured protocol messages through the wire codec
// into a buffer: what encoding and decoding cost without the socket.
func codecLayers(msgs []protocol.Message, msgsPerAdapt float64) map[string]metric {
	if len(msgs) == 0 {
		return nil
	}
	const rounds = 20
	var buf bytes.Buffer
	var bytesOut int
	var encode, decode time.Duration
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	for r := 0; r < rounds; r++ {
		buf.Reset()
		start := time.Now()
		for _, msg := range msgs {
			_ = protocol.WriteFrame(&buf, msg) // a bytes.Buffer write cannot fail
		}
		encode += time.Since(start)
		bytesOut = buf.Len()
		start = time.Now()
		for range msgs {
			if _, err := protocol.ReadFrame(&buf); err != nil {
				return nil
			}
		}
		decode += time.Since(start)
	}
	runtime.ReadMemStats(&ms)
	total := float64(rounds * len(msgs))
	return map[string]metric{
		"protocol.encode_ns":             {float64(encode) / total, "ns"},
		"protocol.decode_ns":             {float64(decode) / total, "ns"},
		"protocol.codec_allocs_per_msg":  {float64(ms.Mallocs-mallocs) / total, "count"},
		"protocol.frame_bytes_per_adapt": {float64(bytesOut) / float64(len(msgs)) * msgsPerAdapt, "B"},
	}
}
