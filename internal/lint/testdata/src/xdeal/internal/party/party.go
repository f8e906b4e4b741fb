// Package party is a fixture stub whose unexported submission helpers
// are labelcheck attribution sites, exercised in-package below.
package party

import "xdeal/internal/chain"

// Transaction labels for per-phase gas accounting.
const (
	LabelEscrow = "escrow"
	LabelCommit = "commit"
)

type Config struct {
	LabelPrefix string
}

type Party struct {
	cfg Config
}

func (p *Party) submit(a any, method, label string, args any) {}

func (p *Party) submitTx(c *chain.Chain, contract chain.Addr, method, label string, args any) {}

func (p *Party) raceTip(c *chain.Chain, label string) uint64 { return 0 }

func (p *Party) drive(c *chain.Chain) {
	p.submit(nil, "m", LabelCommit, nil)                   // ok: declared constant
	p.submit(nil, "m", p.cfg.LabelPrefix+LabelEscrow, nil) // ok: prefix composition
	p.submit(nil, "m", "commit", nil)                      // want `composed from the declared Label\* constant set`
	p.submitTx(c, "c", "m", "deal/"+LabelCommit, nil)      // ok: constant is the rightmost operand
	p.submitTx(c, "c", "m", LabelEscrow+"-x", nil)         // want `composed from the declared Label\* constant set`
	_ = p.raceTip(c, "escrow")                             // want `composed from the declared Label\* constant set`
}
