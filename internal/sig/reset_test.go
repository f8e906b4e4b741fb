package sig

import (
	"reflect"
	"testing"
)

// memoScript signs and checks facts through m, a forgery among them, and
// returns each check's verdict.
func memoScript(m *Memo, signers ...string) []bool {
	var out []bool
	for _, s := range signers {
		kp := GenerateKeyPair(s)
		msg := []byte("vote/" + s)
		f := m.Sign(kp, msg)
		out = append(out, m.Verify(kp.Public, msg, f), m.Verify(kp.Public, msg, f), m.Verify(kp.Public, msg, flipBit(f)))
	}
	return out
}

// TestResetEqualsFresh checks facts through a memo, resets it and checks
// others: the verdicts, the counts and the accepted set must equal those
// of a new memo, so no acceptance from before the reset scores a hit.
func TestResetEqualsFresh(t *testing.T) {
	m := NewMemo()
	memoScript(m, "alice", "bob", "carol")
	m.Reset()
	got := memoScript(m, "bob", "dave")
	fresh := NewMemo()
	if want := memoScript(fresh, "bob", "dave"); !reflect.DeepEqual(got, want) {
		t.Fatalf("verdicts after a reset %v, fresh %v", got, want)
	}
	gv, gh := m.Stats()
	fv, fh := fresh.Stats()
	if gv != fv || gh != fh || !reflect.DeepEqual(m.accepted, fresh.accepted) {
		t.Fatalf("after a reset %d checks, %d hits, %d accepted; fresh %d, %d, %d",
			gv, gh, len(m.accepted), fv, fh, len(fresh.accepted))
	}
	var none *Memo
	none.Reset() // a nil memo stays nil
}
