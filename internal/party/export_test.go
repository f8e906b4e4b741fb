package party

import (
	"fmt"
	"reflect"
	"strings"

	"xdeal/internal/chain"
)

// The external tests (package party_test, which may import the engine to
// get parties wired into a real world) reach the event loop through these.

// Wants is the party's delivery filter.
func (p *Party) Wants(ev chain.Event) bool { return p.wants(ev) }

// OnChainEvent is the party's event handler, as the chain would call it.
func (p *Party) OnChainEvent(ev chain.Event) { p.onChainEvent(ev) }

// WantsGossip is the front-runner's mempool filter.
func (p *Party) WantsGossip(ptx chain.PendingTx) bool { return p.wantsGossip(ptx) }

// OnGossip is the front-runner's mempool handler, as the chain would call it.
func (p *Party) OnGossip(ptx chain.PendingTx) { p.race(ptx) }

// Validated reports whether the party completed validation.
func (p *Party) Validated() bool { return p.validated }

// Repoll runs the two polling loops every escrow event drives, with the
// validation verdict cleared so the whole scan runs again.
func (p *Party) Repoll() {
	p.validated = false
	p.tryTransfers()
	p.checkValidation()
}

// State renders every field the party can change as it runs (all but its
// configuration and its unsubscribe hooks), for before/after comparison.
func (p *Party) State() string {
	v := reflect.ValueOf(p).Elem()
	var b strings.Builder
	for i := 0; i < v.NumField(); i++ {
		if name := v.Type().Field(i).Name; name != "cfg" && name != "unsubs" {
			fmt.Fprintf(&b, "%s=%+v\n", name, v.Field(i))
		}
	}
	return b.String()
}
