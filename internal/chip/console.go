package chip

// Console is the minimal I/O-bus device attached to every node (Section 2
// notes an I/O bus available on each node). It is memory mapped just past
// physical memory and accessed with privileged physical stores:
//
//	offset 0: write the low byte as a character
//	offset 1: write a word, rendered in decimal followed by a newline
//	offset 0 read: number of bytes emitted so far
import (
	"strconv"
	"sync"
)

// ConsoleWords is the device window size in words.
const ConsoleWords = 64

// Console buffers output text from simulated programs.
type Console struct {
	mu  sync.Mutex `snap:"derived,guards buf, not state"`
	buf []byte
}

// DevWrite implements mem.Device.
func (c *Console) DevWrite(off uint64, w uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch off {
	case 0:
		c.buf = append(c.buf, byte(w))
	case 1:
		c.buf = append(c.buf, strconv.FormatInt(int64(w), 10)...)
		c.buf = append(c.buf, '\n')
	}
}

// DevRead implements mem.Device.
func (c *Console) DevRead(off uint64) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if off == 0 {
		return uint64(len(c.buf))
	}
	return 0
}

// String returns the accumulated output.
func (c *Console) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return string(c.buf)
}

// ConsoleBase returns the physical word address of the console window on
// this chip: the first word past local memory.
func (c *Chip) ConsoleBase() uint64 { return c.Cfg.Mem.SDRAM.Words }
