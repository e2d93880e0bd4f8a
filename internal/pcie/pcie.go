// Package pcie models the integrated I/O controller's PCIe ports, including
// the hidden per-port knob the A4 paper exploits: register perfctrlsts_0,
// whose NoSnoopOpWrEn / Use_Allocating_Flow_Wr bits selectively disable DCA
// (DDIO) for the devices behind one port while leaving other ports' DCA
// intact. The package also accounts per-port inbound (device-to-host,
// "PCIe write") and outbound ("PCIe read") traffic, which A4's DMA-leak
// detector consumes as "system I/O read throughput".
package pcie

import "fmt"

// Port identifies one PCIe root port.
type Port struct {
	index int
	name  string

	// dcaEnabled mirrors Use_Allocating_Flow_Wr && !NoSnoopOpWrEn.
	dcaEnabled bool

	inboundBytes  int64 // device writes to host (DMA write)
	outboundBytes int64 // device reads from host (DMA read)
	lastInbound   int64
	lastOutbound  int64
}

// Index returns the port number.
func (p *Port) Index() int { return p.index }

// Name returns the human-readable port label (e.g. "nic0", "ssd0").
func (p *Port) Name() string { return p.name }

// DCAEnabled reports whether DDIO is active for this port.
func (p *Port) DCAEnabled() bool { return p.dcaEnabled }

// AccountInbound adds device-to-host DMA bytes.
func (p *Port) AccountInbound(bytes int64) { p.inboundBytes += bytes }

// AccountOutbound adds host-to-device DMA bytes.
func (p *Port) AccountOutbound(bytes int64) { p.outboundBytes += bytes }

// InboundBytes returns lifetime inbound bytes.
func (p *Port) InboundBytes() int64 { return p.inboundBytes }

// OutboundBytes returns lifetime outbound bytes.
func (p *Port) OutboundBytes() int64 { return p.outboundBytes }

// DeltaBytes returns (inbound, outbound) bytes since the last DeltaBytes.
func (p *Port) DeltaBytes() (in, out int64) {
	in = p.inboundBytes - p.lastInbound
	out = p.outboundBytes - p.lastOutbound
	p.lastInbound = p.inboundBytes
	p.lastOutbound = p.outboundBytes
	return in, out
}

// Complex is the set of PCIe root ports plus the global DCA (BIOS) switch.
type Complex struct {
	ports     []*Port
	globalDCA bool
}

// NewComplex creates ports with the given names. DCA starts enabled
// everywhere, matching BIOS defaults.
func NewComplex(names ...string) *Complex {
	c := &Complex{globalDCA: true}
	for i, n := range names {
		c.ports = append(c.ports, &Port{index: i, name: n, dcaEnabled: true})
	}
	return c
}

// Port returns port i.
func (c *Complex) Port(i int) *Port {
	if i < 0 || i >= len(c.ports) {
		panic(fmt.Sprintf("pcie: port %d out of range", i))
	}
	return c.ports[i]
}

// PortByName finds a port by label, or nil.
func (c *Complex) PortByName(name string) *Port {
	for _, p := range c.ports {
		if p.name == name {
			return p
		}
	}
	return nil
}

// NumPorts returns the port count.
func (c *Complex) NumPorts() int { return len(c.ports) }

// Ports returns all ports in index order.
func (c *Complex) Ports() []*Port { return c.ports }

// SetGlobalDCA flips the BIOS-level DDIO switch affecting every port.
func (c *Complex) SetGlobalDCA(on bool) { c.globalDCA = on }

// GlobalDCA reports the BIOS-level switch state.
func (c *Complex) GlobalDCA() bool { return c.globalDCA }

// SetPortDCA programs the hidden perfctrlsts_0 knob for one port: on=false
// sets NoSnoopOpWrEn and clears Use_Allocating_Flow_Wr, disabling DDIO for
// that port only.
func (c *Complex) SetPortDCA(i int, on bool) { c.Port(i).dcaEnabled = on }

// DCAActive reports whether a DMA write arriving at port i allocates into
// the LLC: requires both the global switch and the per-port knob.
func (c *Complex) DCAActive(i int) bool {
	return c.globalDCA && c.Port(i).dcaEnabled
}
