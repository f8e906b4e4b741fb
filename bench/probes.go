package main

import (
	"crypto/ed25519"
	"fmt"
	"sort"
	"time"

	"xdeal/internal/bft"
	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/engine"
	"xdeal/internal/escrow"
	"xdeal/internal/feemarket"
	"xdeal/internal/party"
	"xdeal/internal/sig"
	"xdeal/internal/sim"
	"xdeal/internal/trace"
)

// probeBatches is how many fixed-size batches each probe times; the
// probe reports the median batch.
const probeBatches = 5

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile is the nearest-rank percentile of v.
func percentile(v []float64, p float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(p*float64(len(s))+0.999999) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

// probe times probeBatches batches of ops operations each and returns
// the median nanoseconds per operation.
func probe(ops int, batch func()) float64 {
	samples := make([]float64, probeBatches)
	for i := range samples {
		t := time.Now()
		batch()
		samples[i] = float64(time.Since(t).Nanoseconds()) / float64(ops)
	}
	return median(samples)
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink any

// probeSig times one ed25519 signature and one verification: the host
// calibration figure, and the unit sig.est_share is priced in.
func probeSig() (signNs, verifyNs float64) {
	const ops = 400
	key := sig.GenerateKeyPair("bench/probe")
	msg := []byte("bench/probe/message")
	s := key.Sign(msg)
	signNs = probe(ops, func() {
		for i := 0; i < ops; i++ {
			sink = key.Sign(msg)
		}
	})
	verifyNs = probe(ops, func() {
		for i := 0; i < ops; i++ {
			sink = sig.Verify(key.Public, msg, s)
		}
	})
	return signNs, verifyNs
}

// probePathSig times a 4-hop path signature: verifying the whole path
// (what a timelock escrow does per forwarded vote) and adding one hop.
func probePathSig() (verifyNs, forwardNs float64, err error) {
	const ops = 100
	keys := make(map[string]ed25519.PublicKey)
	var pairs []sig.KeyPair
	for i := 0; i < 4; i++ {
		kp := sig.GenerateKeyPair(fmt.Sprintf("bench/hop%d", i))
		pairs = append(pairs, kp)
		keys[fmt.Sprintf("p%d", i)] = kp.Public
	}
	k3 := sig.NewVote("probe-deal", "p0", pairs[0]).Forward("p1", pairs[1]).Forward("p2", pairs[2])
	k4 := k3.Forward("p3", pairs[3])
	if err := k4.Verify(keys, nil); err != nil {
		return 0, 0, fmt.Errorf("pathsig probe: %w", err)
	}
	verifyNs = probe(ops, func() {
		for i := 0; i < ops; i++ {
			sink = k4.Verify(keys, nil)
		}
	})
	forwardNs = probe(ops, func() {
		for i := 0; i < ops; i++ {
			sink = k3.Forward("p3", pairs[3])
		}
	})
	return verifyNs, forwardNs, nil
}

// probeBFT times an f=2 committee: making and verifying one 2f+1
// certificate (what every CBC escrow re-checks) and encoding the
// committee.
func probeBFT() (makeNs, verifyNs, encodeNs float64, err error) {
	const ops = 40
	committee, signers := bft.NewCommittee("bench", 0, 2)
	quorum := signers[:committee.Quorum()]
	statement := []byte("bench/probe/statement")
	cert := bft.MakeCertificate(statement, 0, quorum)
	if err := cert.Verify(committee, nil); err != nil {
		return 0, 0, 0, fmt.Errorf("bft probe: %w", err)
	}
	makeNs = probe(ops, func() {
		for i := 0; i < ops; i++ {
			sink = bft.MakeCertificate(statement, 0, quorum)
		}
	})
	verifyNs = probe(ops, func() {
		for i := 0; i < ops; i++ {
			sink = cert.Verify(committee, nil)
		}
	})
	const encodes = 20000
	encodeNs = probe(encodes, func() {
		for i := 0; i < encodes; i++ {
			sink = committee.Encode()
		}
	})
	return makeNs, verifyNs, encodeNs, nil
}

// probeScheduler times scheduling an event and firing it, with a
// quarter of the events canceled before they fire.
func probeScheduler() float64 {
	const ops = 20000
	rng := sim.NewRNG(1)
	fired := 0
	return probe(ops, func() {
		s := sim.NewScheduler()
		for i := 0; i < ops; i++ {
			cancel := s.At(sim.Time(rng.Intn(50000)), func() { fired++ })
			if i%4 == 0 {
				cancel()
			}
		}
		for s.Step() {
		}
		sink = fired
	})
}

// noop is the contract the block-builder probes submit to: all of the
// measured time is the chain's own.
type noop struct{}

func (noop) Invoke(*chain.Env, string, any) (any, error) { return nil, nil }

// probeBuilder times one block builder end to end: submit txs from a
// handful of deals to a no-op contract on a capped chain, drain the
// scheduler, and divide by the transactions included.
func probeBuilder(fees, bundles bool) (float64, error) {
	const ops = 2000
	var err error
	ns := probe(ops, func() {
		sched := sim.NewScheduler()
		cfg := chain.Config{ID: "probe", MaxBlockTxs: 8, Bundles: bundles}
		if fees {
			cfg.FeeMarket = &feemarket.Config{Initial: 100}
		}
		c := chain.New(cfg, sched, sim.NewRNG(1))
		c.MustDeploy("noop", noop{})
		for i := 0; i < ops; i++ {
			tx := &chain.Tx{
				Sender:   chain.Addr(fmt.Sprintf("p%02d", i%16)),
				Contract: "noop",
				Method:   "call",
				Label:    fmt.Sprintf("deal%02d/probe", i%16),
				Tip:      uint64(i % 7),
			}
			if bundles {
				c.SubmitBundled(chain.BundleTx{Deal: fmt.Sprintf("deal%02d", i%16), Tx: tx, PerSlot: 1 + uint64(i%7)})
			} else {
				c.Submit(tx)
			}
		}
		sched.Run()
		if got := len(c.Receipts()); got != ops {
			err = fmt.Errorf("builder probe (fees=%t bundles=%t): %d of %d txs included", fees, bundles, got, ops)
		}
	})
	return ns, err
}

// probeWorld runs one compliant ring-6 timelock deal and times the
// read paths a party polls on it (Book.ViewOf directly, and through
// chain.Query) and the post-run causal attribution of its spans.
func probeWorld() (viewNs, queryNs, attributeNs float64, err error) {
	n := 6
	spec := deal.RingSpec(n, sim.Time(3000+500*n), 1000)
	w, err := engine.Build(spec, engine.Options{Seed: 1, Protocol: party.ProtoTimelock})
	if err != nil {
		return 0, 0, 0, fmt.Errorf("world probe: %w", err)
	}
	r := w.Run()
	if !r.AllCommitted {
		return 0, 0, 0, fmt.Errorf("world probe: compliant ring-%d did not commit", n)
	}
	asset := spec.Escrows()[0]
	mgr, c := w.Managers[asset.Key()], w.Chains[asset.Chain]
	if _, err := c.Query(asset.Escrow, escrow.MethodStatus, spec.ID); err != nil {
		return 0, 0, 0, fmt.Errorf("world probe: %w", err)
	}
	const reads = 2000
	viewNs = probe(reads, func() {
		for i := 0; i < reads; i++ {
			sink = mgr.ViewOf(spec.ID)
		}
	})
	queryNs = probe(reads, func() {
		for i := 0; i < reads; i++ {
			sink, _ = c.Query(asset.Escrow, escrow.MethodStatus, spec.ID) // checked once above
		}
	})
	spans := w.DealSpans(r)
	const attributions = 500
	attributeNs = probe(attributions, func() {
		for i := 0; i < attributions; i++ {
			sink = trace.Attribute(spans, r.Phases.Start, r.Phases.DecisionEnd)
		}
	})
	return viewNs, queryNs, attributeNs, nil
}
