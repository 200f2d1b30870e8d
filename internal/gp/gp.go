// Package gp implements the M-Machine's guarded pointers: the light-weight
// capability system that provides protection in the single global virtual
// address space (Section 2; Carter, Keckler & Dally, "Hardware support for
// fast capability-based addressing", ASPLOS VI).
//
// A guarded pointer is a 64-bit word carrying a 4-bit permission field, a
// 6-bit segment-length field, and a 54-bit word address, plus an unforgeable
// tag bit held out of band (in registers and in memory). The segment-length
// field L places the address inside a naturally aligned segment of 2^L
// words; pointer arithmetic (the LEA operation) that would leave the segment
// raises a protection fault. Because segmentation is independent of paging,
// protection is preserved on variable-size segments (Section 2).
package gp

import (
	"errors"
	"fmt"
)

// Perm is the 4-bit permission field of a guarded pointer.
type Perm uint8

const (
	PermRead    Perm = 1 << 0 // words may be loaded through the pointer
	PermWrite   Perm = 1 << 1 // words may be stored through the pointer
	PermExecute Perm = 1 << 2 // the segment may be entered for execution
	PermKey     Perm = 1 << 3 // opaque key: no data access, identity only

	PermRW  = PermRead | PermWrite
	PermAll = PermRead | PermWrite | PermExecute
)

func (p Perm) String() string {
	buf := []byte("----")
	if p&PermRead != 0 {
		buf[0] = 'r'
	}
	if p&PermWrite != 0 {
		buf[1] = 'w'
	}
	if p&PermExecute != 0 {
		buf[2] = 'x'
	}
	if p&PermKey != 0 {
		buf[3] = 'k'
	}
	return string(buf)
}

// Field layout within the 64-bit pointer word.
const (
	AddrBits  = 54
	addrMask  = (uint64(1) << AddrBits) - 1
	lenShift  = AddrBits
	lenBits   = 6
	lenMask   = (uint64(1) << lenBits) - 1
	permShift = AddrBits + lenBits
	permMask  = 0xF

	// MaxSegLen is the largest encodable segment length exponent.
	MaxSegLen = (1 << lenBits) - 1
)

// Pointer is the 64-bit guarded-pointer word. The tag bit that distinguishes
// pointers from data travels alongside the word (register and memory models
// keep a tag bit per word); Pointer itself is just the bit pattern.
type Pointer uint64

// Errors raised by pointer operations. They surface as protection-violation
// exceptions on the issuing thread (Section 3.3: detected in the first
// execution cycle and handled synchronously).
var (
	ErrSegment = errors.New("gp: pointer arithmetic crossed segment boundary")
	ErrPerm    = errors.New("gp: insufficient permissions")
	ErrSegLen  = errors.New("gp: segment length exponent out of range")
)

// Make constructs a guarded pointer. addr is truncated to 54 bits; segLen is
// the base-2 logarithm of the segment size in words.
func Make(perms Perm, segLen uint8, addr uint64) (Pointer, error) {
	if segLen > MaxSegLen {
		return 0, fmt.Errorf("%w: %d", ErrSegLen, segLen)
	}
	w := addr & addrMask
	w |= (uint64(segLen) & lenMask) << lenShift
	w |= uint64(perms&permMask) << permShift
	return Pointer(w), nil
}

// MustMake is Make for statically valid arguments; it panics on error and is
// intended for tests and boot code.
func MustMake(perms Perm, segLen uint8, addr uint64) Pointer {
	p, err := Make(perms, segLen, addr)
	if err != nil {
		panic(err)
	}
	return p
}

// Addr returns the 54-bit word address.
func (p Pointer) Addr() uint64 { return uint64(p) & addrMask }

// SegLen returns the segment length exponent L (segment size = 2^L words).
func (p Pointer) SegLen() uint8 { return uint8((uint64(p) >> lenShift) & lenMask) }

// Perms returns the permission field.
func (p Pointer) Perms() Perm { return Perm((uint64(p) >> permShift) & permMask) }

// SegBase returns the word address of the start of the segment: the address
// with the low L bits cleared (segments are naturally aligned).
func (p Pointer) SegBase() uint64 {
	l := p.SegLen()
	if l >= AddrBits {
		return 0
	}
	return p.Addr() &^ ((uint64(1) << l) - 1)
}

// SegSize returns the segment size in words.
func (p Pointer) SegSize() uint64 {
	l := p.SegLen()
	if l >= AddrBits {
		return uint64(1) << AddrBits
	}
	return uint64(1) << l
}

// Contains reports whether word address a lies inside the pointer's segment.
func (p Pointer) Contains(a uint64) bool {
	base := p.SegBase()
	return a >= base && a-base < p.SegSize()
}

// Add performs LEA: it offsets the pointer by off words, preserving the
// permission and segment fields. Arithmetic that leaves the segment returns
// ErrSegment; hardware raises a synchronous protection fault in that case.
func (p Pointer) Add(off int64) (Pointer, error) {
	na := p.Addr() + uint64(off) // two's-complement wrap gives subtraction
	na &= addrMask
	if !p.Contains(na) {
		return 0, fmt.Errorf("%w: base %#x + %d -> %#x outside [%#x,%#x)",
			ErrSegment, p.Addr(), off, na, p.SegBase(), p.SegBase()+p.SegSize())
	}
	q := (uint64(p) &^ addrMask) | na
	return Pointer(q), nil
}

// CheckAccess validates a data access of the given kind through the pointer.
func (p Pointer) CheckAccess(write bool) error {
	need := PermRead
	if write {
		need = PermWrite
	}
	if p.Perms()&need == 0 {
		return fmt.Errorf("%w: have %s, need %s", ErrPerm, p.Perms(), need)
	}
	if p.Perms()&PermKey != 0 {
		return fmt.Errorf("%w: key pointers carry no data access", ErrPerm)
	}
	return nil
}

// CheckExecute validates entering the segment for execution.
func (p Pointer) CheckExecute() error {
	if p.Perms()&PermExecute == 0 {
		return fmt.Errorf("%w: have %s, need execute", ErrPerm, p.Perms())
	}
	return nil
}

// PackSetptr encodes the segment-length and permission operand of the
// privileged SETPTR operation into an immediate: perms in the low 4 bits,
// segment length exponent above them.
func PackSetptr(perms Perm, segLen uint8) int64 {
	return int64(uint64(perms&permMask) | uint64(segLen)<<4)
}

// UnpackSetptr decodes a PackSetptr immediate.
func UnpackSetptr(imm int64) (Perm, uint8) {
	return Perm(imm & permMask), uint8(uint64(imm) >> 4 & lenMask)
}

func (p Pointer) String() string {
	return fmt.Sprintf("ptr{%s L=%d addr=%#x}", p.Perms(), p.SegLen(), p.Addr())
}
