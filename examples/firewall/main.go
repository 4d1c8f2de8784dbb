// Firewall: hardening a request pipeline at run time without dropping
// in-flight requests.
//
// A gateway process forwards client requests through a filter chain to a
// backend process. Initially the gateway runs a permissive ACL and the
// backend a basic logger. The operator hardens the system to a strict
// ACL — but the strict ACL stamps requests with an auth tag that only the
// audit logger understands, so the dependency invariant
//
//	ACLStrict -> LogAudit
//
// forces the audit logger in before the strict ACL. The safe adaptation
// process discovers that order, quiesces the pipeline upstream-first so
// in-flight requests drain, and swaps both components with zero dropped
// or misclassified requests.
//
// Run with: go run ./examples/firewall
package main

import (
	"context"
	"fmt"
	"log"
	"sync/atomic"
	"time"

	safeadapt "repro"
	"repro/internal/adapters"
	"repro/internal/metasocket"
	"repro/internal/netsim"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// aclFilter tags requests at the gateway. The strict variant drops
// requests whose first payload byte marks them unprivileged.
type aclFilter struct {
	name    string
	strict  bool
	dropped *atomic.Uint64
}

func (f *aclFilter) Name() string { return f.name }

func (f *aclFilter) Process(dst []metasocket.Packet, p metasocket.Packet) ([]metasocket.Packet, error) {
	if f.strict {
		if len(p.Payload) > 0 && p.Payload[0] == 'u' { // unprivileged
			f.dropped.Add(1)
			return dst, nil // rejected at the edge
		}
		return append(dst, p.PushEnc("auth", p.Payload)), nil
	}
	return append(dst, p), nil
}

// logFilter records requests at the backend. The audit variant consumes
// the auth tag; the basic variant cannot and must bypass tagged packets
// (which the invariant prevents from ever happening in a safe run).
type logFilter struct {
	name     string
	audit    bool
	plain    *atomic.Uint64
	authed   *atomic.Uint64
	untagged *atomic.Uint64
}

func (f *logFilter) Name() string { return f.name }

func (f *logFilter) Process(dst []metasocket.Packet, p metasocket.Packet) ([]metasocket.Packet, error) {
	if p.TopEnc() == "auth" {
		if !f.audit {
			// A basic logger seeing an auth-tagged request is exactly
			// the mismatch unsafe adaptation causes.
			f.untagged.Add(1)
			return append(dst, p), nil
		}
		f.authed.Add(1)
		return append(dst, p.PopEnc(p.Payload)), nil
	}
	f.plain.Add(1)
	return append(dst, p), nil
}

func run() error {
	sys, err := safeadapt.FromJSON([]byte(`{
		"name": "firewall-hardening",
		"components": [
			{"name": "ACLPermissive", "process": "gateway"},
			{"name": "ACLStrict",     "process": "gateway"},
			{"name": "LogBasic",      "process": "backend"},
			{"name": "LogAudit",      "process": "backend"}
		],
		"invariants": [
			{"name": "one-acl", "kind": "structural", "predicate": "oneof(ACLPermissive, ACLStrict)"},
			{"name": "one-log", "kind": "structural", "predicate": "oneof(LogBasic, LogAudit)"},
			{"name": "strict-needs-audit", "kind": "dependency", "predicate": "ACLStrict -> LogAudit"}
		],
		"actions": [
			{"id": "HardenACL", "operation": "ACLPermissive -> ACLStrict", "costMillis": 20},
			{"id": "AuditLog",  "operation": "LogBasic -> LogAudit",       "costMillis": 10},
			{"id": "Compound",  "operation": "(ACLPermissive, LogBasic) -> (ACLStrict, LogAudit)", "costMillis": 60}
		],
		"source": ["ACLPermissive", "LogBasic"],
		"target": ["ACLStrict", "LogAudit"],
		"dataflow": ["gateway"]
	}`))
	if err != nil {
		return err
	}

	path, err := sys.PlanRequest()
	if err != nil {
		return err
	}
	fmt.Println("minimum adaptation path:", path)

	// Build the running pipeline: gateway send-socket -> netsim link ->
	// backend recv-socket.
	var aclDropped, logPlain, logAuthed, logUntagged, delivered atomic.Uint64

	group := netsim.NewGroup(7)
	sub, err := group.Subscribe("backend", netsim.LinkProfile{Latency: 2 * time.Millisecond}, 1024)
	if err != nil {
		return err
	}

	factory := func(name string) (metasocket.Filter, error) {
		switch name {
		case "ACLPermissive":
			return &aclFilter{name: name, dropped: &aclDropped}, nil
		case "ACLStrict":
			return &aclFilter{name: name, strict: true, dropped: &aclDropped}, nil
		case "LogBasic":
			return &logFilter{name: name, plain: &logPlain, authed: &logAuthed, untagged: &logUntagged}, nil
		case "LogAudit":
			return &logFilter{name: name, audit: true, plain: &logPlain, authed: &logAuthed, untagged: &logUntagged}, nil
		default:
			return nil, fmt.Errorf("unknown component %q", name)
		}
	}

	acl, err := factory("ACLPermissive")
	if err != nil {
		return err
	}
	gwSock, err := metasocket.NewSendSocket(func(d []byte) error { return group.Send(d) }, acl)
	if err != nil {
		return err
	}
	logf, err := factory("LogBasic")
	if err != nil {
		return err
	}
	beSock, err := metasocket.NewRecvSocket(func(p metasocket.Packet) error {
		delivered.Add(1)
		return nil
	}, logf)
	if err != nil {
		return err
	}
	beSock.AttachLink(sub)
	if err := beSock.Start(sub.Recv()); err != nil {
		return err
	}

	// Deploy the adaptation control plane over the two processes.
	procs := map[string]safeadapt.LocalProcess{
		"gateway": adapters.NewSendProcess("gateway", gwSock, factory),
		"backend": adapters.NewRecvProcess("backend", beSock, factory),
	}
	// The spec's "dataflow": ["gateway"] declaration makes the deployment
	// quiesce the gateway first on every step, so the backend swaps on a
	// drained link — no hand-written phase policy needed.
	dep, err := sys.Deploy(procs, safeadapt.DeployOptions{StepTimeout: 5 * time.Second})
	if err != nil {
		return err
	}
	defer dep.Close()

	// Drive request traffic: alternating privileged/unprivileged.
	stop := make(chan struct{})
	trafficDone := make(chan error, 1)
	go func() {
		defer close(trafficDone)
		var i uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			payload := []byte("privileged request")
			if i%3 == 0 {
				payload = []byte("unprivileged request")
			}
			if err := gwSock.Send(metasocket.Packet{Frame: uint32(i), Count: 1, Payload: payload}); err != nil {
				trafficDone <- err
				return
			}
			i++
			time.Sleep(200 * time.Microsecond)
		}
	}()

	time.Sleep(20 * time.Millisecond) // warm-up traffic

	res, err := dep.Adapt(sys.Source(), sys.Target())
	if err != nil {
		return err
	}
	fmt.Printf("adaptation completed: %v\n", res.Completed)
	for _, sr := range res.Steps {
		fmt.Printf("  step %-9s %s -> %s (%s)\n", sr.ActionID, sr.From, sr.To, sr.Outcome)
	}

	time.Sleep(20 * time.Millisecond) // post-adaptation traffic
	close(stop)
	if err, ok := <-trafficDone; ok && err != nil {
		return err
	}
	if err := beSock.WaitDrained(contextWithTimeout(2 * time.Second)); err != nil {
		return err
	}

	fmt.Printf("\nbackend log: plain=%d authed=%d\n", logPlain.Load(), logAuthed.Load())
	fmt.Printf("gateway strict ACL rejected: %d\n", aclDropped.Load())
	fmt.Printf("auth-tagged requests hitting the basic logger (corruption): %d\n", logUntagged.Load())
	fmt.Printf("requests delivered to the application: %d\n", delivered.Load())

	_ = group.Close()
	beSock.Wait()
	gwSock.Close()
	if n := logUntagged.Load(); n > 0 {
		return fmt.Errorf("unsafe: %d auth-tagged requests hit the basic logger", n)
	}
	fmt.Println("safe: no request was ever misclassified during the hardening")
	return nil
}

func contextWithTimeout(d time.Duration) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	_ = cancel // the example exits right after; contexts die with it
	return ctx
}
