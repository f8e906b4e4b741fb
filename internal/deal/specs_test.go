package deal

import (
	"fmt"
	"testing"

	"xdeal/internal/sim"
)

// TestIndexedNamesMatchSprintf: the spec builders' tabled names are the
// ones fmt.Sprintf("%s%02d") gives, on both sides of the table's end.
func TestIndexedNamesMatchSprintf(t *testing.T) {
	for _, tab := range []*nameTable{partyNames, brokerNames, chainNames, tokenNames, escrowNames} {
		for i := 0; i < 150; i++ {
			if got, want := tab.at(i), fmt.Sprintf("%s%02d", tab.prefix, i); got != want {
				t.Fatalf("%s table at %d = %q, want %q", tab.prefix, i, got, want)
			}
		}
	}
	ring := RingSpec(120, 0, 10)
	if ring.Parties[7] != "p07" || ring.Parties[119] != "p119" {
		t.Fatalf("ring parties %s, %s", ring.Parties[7], ring.Parties[119])
	}
	if a := ring.Transfers[105].Asset; a.Chain != "chain105" || a.Token != "tok105" || a.Escrow != "esc105" {
		t.Fatalf("ring asset 105 = %+v", a)
	}
	dense := DenseSpec(4, 3, 0, 10)
	if a := dense.Transfers[len(dense.Transfers)-1].Asset; a.Chain != "chain02" || a.Token != "tok02" || a.Escrow != "esc02" {
		t.Fatalf("dense last asset = %+v", a)
	}
	if b := BrokerChainSpec(3, 100, 1, 0, 10); b.Parties[3] != "broker03" {
		t.Fatalf("broker chain parties = %v", b.Parties)
	}
	r := RandomSpec(sim.NewRNG(1), 5, 3, 4, 0, 10)
	if r.Parties[4] != "p04" {
		t.Fatalf("random parties = %v", r.Parties)
	}
}

// TestSpecIDsMatchSprintf: the sized builders' ids, built by
// concatenation, are the ones fmt.Sprintf gave, at sizes 2–12.
func TestSpecIDsMatchSprintf(t *testing.T) {
	for n := 2; n <= 12; n++ {
		m := n%3 + 2
		for _, c := range []struct{ got, want string }{
			{RingSpec(n, 3000, 1000).ID, fmt.Sprintf("ring-%d", n)},
			{BrokerChainSpec(n, 100, 5, 3000, 1000).ID, fmt.Sprintf("brokerchain-%d", n)},
			{DenseSpec(n, m, 3000, 1000).ID, fmt.Sprintf("dense-%dx%d", n, m)},
			{RandomSpec(sim.NewRNG(uint64(n)), n, 2, n-2, 3000, 1000).ID, fmt.Sprintf("random-%d-%d", n, n-2)},
		} {
			if c.got != c.want {
				t.Errorf("id %q, want %q", c.got, c.want)
			}
		}
	}
}
