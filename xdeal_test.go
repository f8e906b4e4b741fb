package xdeal_test

import (
	"strings"
	"testing"

	"xdeal"
)

func TestPublicAPIBrokerDeal(t *testing.T) {
	spec := xdeal.BrokerDeal(2000, 1000)
	if !spec.WellFormed() {
		t.Fatal("broker deal not well-formed")
	}
	r, err := xdeal.Run(spec, xdeal.Options{Seed: 1, Protocol: xdeal.Timelock})
	if err != nil {
		t.Fatal(err)
	}
	if !r.AllCommitted {
		t.Fatalf("deal did not commit:\n%s", r.Summary())
	}
	if !strings.Contains(r.Summary(), "COMMITTED") {
		t.Fatal("summary missing outcome")
	}
}

func TestPublicAPIBothProtocols(t *testing.T) {
	for _, proto := range []xdeal.Protocol{xdeal.Timelock, xdeal.CBC} {
		spec := xdeal.RingDeal(4, 4000, 1000)
		r, err := xdeal.Run(spec, xdeal.Options{Seed: 2, Protocol: proto, F: 1})
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if !r.AllCommitted {
			t.Fatalf("%s: ring did not commit", proto)
		}
	}
}

func TestPublicAPIDeviations(t *testing.T) {
	spec := xdeal.BrokerDeal(2000, 1000)
	r, err := xdeal.Run(spec, xdeal.Options{
		Seed:     3,
		Protocol: xdeal.Timelock,
		Behaviors: map[xdeal.Addr]xdeal.Behavior{
			"carol": {xdeal.SkipVoting{}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.AllCommitted {
		t.Fatal("deal committed without carol's vote")
	}
	if len(r.SafetyViolations) > 0 {
		t.Fatalf("safety violated:\n%s", r.Summary())
	}
}

func TestPublicAPIBuildThenRun(t *testing.T) {
	spec := xdeal.SwapDeal(2000, 1000)
	w, err := xdeal.Build(spec, xdeal.Options{Seed: 4, Protocol: xdeal.Timelock})
	if err != nil {
		t.Fatal(err)
	}
	// World exposes the substrate for observers before running.
	if len(w.Chains) != 2 {
		t.Fatalf("swap spans %d chains, want 2", len(w.Chains))
	}
	r := w.Run()
	if !r.AllCommitted {
		t.Fatal("swap did not commit")
	}
}

func TestPublicAPIRejectsInvalidSpec(t *testing.T) {
	if _, err := xdeal.Run(&xdeal.Spec{}, xdeal.Options{Protocol: xdeal.Timelock}); err == nil {
		t.Fatal("empty spec accepted")
	}
	spec := xdeal.BrokerDeal(0, 0) // broken timelock params
	if _, err := xdeal.Run(spec, xdeal.Options{Protocol: xdeal.Timelock}); err == nil {
		t.Fatal("zero timelock params accepted")
	}
}

func TestPublicAPIAuctionAndDense(t *testing.T) {
	r, err := xdeal.Run(xdeal.AuctionDeal(2000, 1000, 90, 60),
		xdeal.Options{Seed: 5, Protocol: xdeal.CBC, F: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !r.AllCommitted {
		t.Fatal("auction did not commit")
	}
	r, err = xdeal.Run(xdeal.DenseDeal(4, 3, 5000, 1000),
		xdeal.Options{Seed: 6, Protocol: xdeal.Timelock})
	if err != nil {
		t.Fatal(err)
	}
	if !r.AllCommitted {
		t.Fatal("dense deal did not commit")
	}
}

func TestPublicAPISpecJSONRoundTrip(t *testing.T) {
	var buf strings.Builder
	if err := xdeal.WriteSpec(&buf, xdeal.BrokerDeal(2000, 1000)); err != nil {
		t.Fatal(err)
	}
	s, err := xdeal.ReadSpec(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	r, err := xdeal.Run(s, xdeal.Options{Seed: 9, Protocol: xdeal.Timelock})
	if err != nil {
		t.Fatal(err)
	}
	if !r.AllCommitted {
		t.Fatal("round-tripped spec failed to run")
	}
}

func TestPublicAPIFleetSweep(t *testing.T) {
	rep, err := xdeal.Sweep(xdeal.SweepOptions{
		Deals:   25,
		Workers: 4,
		Gen: xdeal.GenOptions{
			Seed: 3, Protocol: "mixed",
			AdversaryRate: 0.4, DoSRate: 0.2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total.Runs != 25 {
		t.Fatalf("ran %d deals, want 25", rep.Total.Runs)
	}
	if !rep.Clean() {
		t.Fatalf("population not clean: %v", rep.Violations)
	}
	var buf strings.Builder
	rep.Fprint(&buf)
	if !strings.Contains(buf.String(), "no safety/liveness violations") {
		t.Fatalf("report missing clean verdict:\n%s", buf.String())
	}
}
