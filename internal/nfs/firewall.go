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

// fwRule is a FirewallRule compiled by AddRule: prefixes as mask and
// masked network (mask 0 matches any address) and port ranges as inclusive
// bounds, so matching a packet is compares only.
type fwRule struct {
	srcMask, srcNet, dstMask, dstNet uint32
	srcLo, srcHi, dstLo, dstHi       uint16
	// ports is set when the rule constrains a port, which a portless
	// protocol can never satisfy.
	ports  bool
	proto  uint8
	action Verdict
}

// prefixMask is the netmask of a prefix length (<= 0 matches any address).
func prefixMask(plen int) uint32 {
	if plen <= 0 {
		return 0
	}
	return ^uint32(0) << (32 - min(plen, 32))
}

// portRange normalises a rule's port bounds: 0-0 is any port, and a zero
// upper bound means the single port lo.
func portRange(lo, hi uint16) (uint16, uint16) {
	switch {
	case lo == 0 && hi == 0:
		return 0, 0xffff
	case hi == 0:
		return lo, lo
	}
	return lo, hi
}

// matches reports whether the rule covers an IP packet's 5-tuple.
func (r *fwRule) matches(t *proto.Tuple) bool {
	if r.proto != 0 && r.proto != t.Protocol {
		return false
	}
	if uint32(t.Src)&r.srcMask != r.srcNet || uint32(t.Dst)&r.dstMask != r.dstNet {
		return false
	}
	if !t.HasPorts() {
		return !r.ports
	}
	return t.SrcPort >= r.srcLo && t.SrcPort <= r.srcHi &&
		t.DstPort >= r.dstLo && t.DstPort <= r.dstHi
}

// Firewall is a stateless ordered-rule packet filter (first match wins).
type Firewall struct {
	rules []fwRule
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

// AddRule appends a rule (evaluated in insertion order), compiled once here
// rather than per packet.
func (fw *Firewall) AddRule(r FirewallRule) {
	c := fwRule{
		srcMask: prefixMask(r.SrcPrefixLen),
		dstMask: prefixMask(r.DstPrefixLen),
		ports:   r.SrcPortLo != 0 || r.SrcPortHi != 0 || r.DstPortLo != 0 || r.DstPortHi != 0,
		proto:   r.Proto,
		action:  r.Action,
	}
	c.srcNet, c.dstNet = uint32(r.SrcAddr)&c.srcMask, uint32(r.DstAddr)&c.dstMask
	c.srcLo, c.srcHi = portRange(r.SrcPortLo, r.SrcPortHi)
	c.dstLo, c.dstHi = portRange(r.DstPortLo, r.DstPortHi)
	fw.rules = append(fw.rules, c)
}

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
		if fw.rules[i].matches(&t) {
			v = fw.rules[i].action
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
