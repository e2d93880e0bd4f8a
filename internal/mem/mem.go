// Package mem models the memory controller: it accounts every DRAM read and
// write in bytes so the harness can report memory bandwidth (GB/s), the
// metric several of the paper's figures plot, and exposes the fixed access
// latencies used by the timing model.
package mem

// Latency constants in core cycles at 2.3 GHz, Skylake-class.
const (
	LatencyMLCHit  = 14  // L2 hit
	LatencyLLCHit  = 50  // LLC hit
	LatencyDRAM    = 220 // LLC miss served by DRAM
	CyclesPerMicro = 2300
	LineBytes      = 64
)

// Controller accounts DRAM traffic. Not safe for concurrent use.
type Controller struct {
	readBytes  int64
	writeBytes int64

	lastRead  int64
	lastWrite int64
}

// New returns an empty controller.
func New() *Controller { return &Controller{} }

// ReadLine accounts one 64-byte line read from DRAM.
func (c *Controller) ReadLine() { c.readBytes += LineBytes }

// WriteLine accounts one 64-byte line written to DRAM.
func (c *Controller) WriteLine() { c.writeBytes += LineBytes }

// ReadBytes returns lifetime bytes read.
func (c *Controller) ReadBytes() int64 { return c.readBytes }

// WriteBytes returns lifetime bytes written.
func (c *Controller) WriteBytes() int64 { return c.writeBytes }

// DeltaBytes returns (read, write) bytes since the previous DeltaBytes call.
func (c *Controller) DeltaBytes() (read, write int64) {
	read = c.readBytes - c.lastRead
	write = c.writeBytes - c.lastWrite
	c.lastRead = c.readBytes
	c.lastWrite = c.writeBytes
	return read, write
}

// Reset zeroes all accounting.
func (c *Controller) Reset() {
	c.readBytes, c.writeBytes = 0, 0
	c.lastRead, c.lastWrite = 0, 0
}
