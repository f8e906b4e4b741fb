package engine_test

import (
	"bytes"
	"testing"

	"xdeal/internal/engine"
	"xdeal/internal/fleet"
	"xdeal/internal/obs"
)

// TestVerifyMemoIsInvisibleInReports is the ed25519-versus-facts twin:
// under a substrate memo every signature is a fact (see sig.Memo), and
// without one it is an ed25519 signature, but both schemes accept exactly
// the signatures their signers made and gas is charged per check either
// way, so whole seed-7 populations — timelock, CBC, mixed, and a
// shared-world arena — must render byte-identical reports in both.
func TestVerifyMemoIsInvisibleInReports(t *testing.T) {
	deals := 48
	if testing.Short() {
		deals = 16
	}
	adversarial := func(protocol string) fleet.Options {
		return fleet.Options{Deals: deals, Workers: 2, Gen: fleet.GenOptions{
			Seed: 7, Protocol: protocol, AdversaryRate: 0.3, DoSRate: 0.15,
		}}
	}
	arena := adversarial("mixed")
	arena.Gen.DoSRate = 0
	arena.Arena = &fleet.ArenaOptions{DealsPerArena: deals / 2, Chains: 2}

	for name, opts := range map[string]fleet.Options{
		"timelock": adversarial("timelock"),
		"cbc":      adversarial("cbc"),
		"mixed":    adversarial("mixed"),
		"arena":    arena,
	} {
		t.Run(name, func(t *testing.T) {
			withMemo, withoutMemo := obs.NewRegistry(), obs.NewRegistry()
			opts.Obs = &fleet.ObsOptions{Metrics: withMemo}
			memoised := reportJSON(t, opts)
			var plain []byte
			engine.WithoutVerifyMemo(func() {
				opts.Obs = &fleet.ObsOptions{Metrics: withoutMemo}
				plain = reportJSON(t, opts)
			})
			if !bytes.Equal(memoised, plain) {
				t.Fatalf("report with the verify memo (%d bytes) differs from the report without it (%d bytes)",
					len(memoised), len(plain))
			}
			// The two runs really took different paths.
			if hits := withMemo.Counter("sig.verify_memo_hits").Value(); hits == 0 {
				t.Fatal("the memoised run never hit its memo")
			}
			if asked := withoutMemo.Counter("sig.verifications").Value(); asked != 0 {
				t.Fatalf("the plain run still sent %d verifications through a memo", asked)
			}
		})
	}
}

func reportJSON(t *testing.T, opts fleet.Options) []byte {
	t.Helper()
	rep, err := fleet.Sweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
