package nfs

import (
	"nfvnice/internal/proto"
)

// FirewallRule matches packets by prefixes, port ranges and protocol. Zero
// values are wildcards; PrefixLen 0 with Addr 0 matches any address.
type FirewallRule struct {
	SrcAddr      proto.IPv4Addr
	SrcPrefixLen int
	DstAddr      proto.IPv4Addr
	DstPrefixLen int
	SrcPortLo    uint16
	SrcPortHi    uint16 // 0 means "no upper bound configured" when Lo is 0 too
	DstPortLo    uint16
	DstPortHi    uint16
	Proto        uint8 // 0 = any

	Action Verdict
}

func prefixMatch(addr, ruleAddr proto.IPv4Addr, plen int) bool {
	if plen <= 0 {
		return true
	}
	if plen > 32 {
		plen = 32
	}
	mask := uint32(0xffffffff) << (32 - plen)
	return uint32(addr)&mask == uint32(ruleAddr)&mask
}

func portMatch(p, lo, hi uint16) bool {
	if lo == 0 && hi == 0 {
		return true
	}
	if hi == 0 {
		hi = lo
	}
	return p >= lo && p <= hi
}

// Matches reports whether the rule covers the frame's 5-tuple.
func (r *FirewallRule) Matches(t *proto.Tuple) bool {
	if !t.HasIP() {
		return false
	}
	if r.Proto != 0 && r.Proto != t.Protocol {
		return false
	}
	if !prefixMatch(t.Src, r.SrcAddr, r.SrcPrefixLen) {
		return false
	}
	if !prefixMatch(t.Dst, r.DstAddr, r.DstPrefixLen) {
		return false
	}
	if !t.HasPorts() {
		// Port constraints cannot match a portless protocol.
		return r.SrcPortLo == 0 && r.SrcPortHi == 0 && r.DstPortLo == 0 && r.DstPortHi == 0
	}
	return portMatch(t.SrcPort, r.SrcPortLo, r.SrcPortHi) && portMatch(t.DstPort, r.DstPortLo, r.DstPortHi)
}

// Firewall is a stateless ordered-rule packet filter (first match wins).
type Firewall struct {
	rules []FirewallRule
	// DefaultAction applies when no rule matches (default-deny posture
	// unless configured otherwise).
	DefaultAction Verdict

	// Accepted, Dropped and NonIP count outcomes.
	Accepted uint64
	Dropped  uint64
	NonIP    uint64
}

// NewFirewall returns a firewall with the given default action.
func NewFirewall(def Verdict) *Firewall {
	return &Firewall{DefaultAction: def}
}

// AddRule appends a rule (evaluated in insertion order).
func (fw *Firewall) AddRule(r FirewallRule) { fw.rules = append(fw.rules, r) }

// Name implements Processor.
func (fw *Firewall) Name() string { return "firewall" }

// Process implements Processor.
func (fw *Firewall) Process(frame []byte) Verdict {
	t, err := proto.DecodeTuple(frame)
	if err != nil {
		fw.Dropped++
		return Drop
	}
	if !t.HasIP() {
		// L2-only traffic passes (the firewall filters IP).
		fw.NonIP++
		fw.Accepted++
		return Accept
	}
	v := fw.DefaultAction
	for i := range fw.rules {
		if fw.rules[i].Matches(&t) {
			v = fw.rules[i].Action
			break
		}
	}
	if v == Accept {
		fw.Accepted++
	} else {
		fw.Dropped++
	}
	return v
}
