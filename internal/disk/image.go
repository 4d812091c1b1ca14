package disk

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/sim"
)

// Image format:
//
//	magic      uint32 ("DIMG")
//	blockSize  uint32
//	numBlocks  int64
//	repeat until EOF marker:
//	  blockIdx int64   (-1 terminates)
//	  data     [blockSize]byte
//
// Only blocks that were ever written are stored, so images of mostly-empty
// devices stay small.
const imageMagic = 0x44494d47

// ErrBadImage reports a malformed or mismatched device image.
var ErrBadImage = errors.New("disk: bad device image")

// SaveImage writes the device's contents to w. The simulated clock is not
// part of the image (a freshly loaded device starts with an unknown arm
// position and zero stats). It runs after Scheduler.Run returns.
func (d *Device) SaveImage(w io.Writer) error {
	bw := bufio.NewWriter(w)
	le := binary.LittleEndian
	hdr := make([]byte, 16)
	le.PutUint32(hdr[0:], imageMagic)
	le.PutUint32(hdr[4:], uint32(d.model.BlockSize))
	le.PutUint64(hdr[8:], uint64(d.model.NumBlocks))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	idx := make([]byte, 8)
	for i, b := range d.blocks {
		if b == nil {
			continue
		}
		le.PutUint64(idx, uint64(i))
		if _, err := bw.Write(idx); err != nil {
			return err
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	le.PutUint64(idx, ^uint64(0)) // -1 terminator
	if _, err := bw.Write(idx); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadImage creates a device from a saved image, using the given service-
// time model (the geometry must match the image's block size and count). It
// runs at set-up time, before Scheduler.Run.
func LoadImage(model sim.DiskModel, clock *sim.Clock, r io.Reader) (*Device, error) {
	br := bufio.NewReader(r)
	le := binary.LittleEndian
	hdr := make([]byte, 16)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrBadImage, err)
	}
	if le.Uint32(hdr[0:]) != imageMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadImage)
	}
	bs := int(le.Uint32(hdr[4:]))
	nb := int64(le.Uint64(hdr[8:]))
	if bs != model.BlockSize || nb != model.NumBlocks {
		return nil, fmt.Errorf("%w: geometry %d×%d does not match model %d×%d",
			ErrBadImage, nb, bs, model.NumBlocks, model.BlockSize)
	}
	d := New(model, clock)
	idx, b := make([]byte, 8), make([]byte, bs)
	for {
		if _, err := io.ReadFull(br, idx); err != nil {
			return nil, fmt.Errorf("%w: truncated index: %v", ErrBadImage, err)
		}
		i := int64(le.Uint64(idx))
		if i == -1 {
			break
		}
		if i < 0 || i >= nb {
			return nil, fmt.Errorf("%w: block %d out of range", ErrBadImage, i)
		}
		if _, err := io.ReadFull(br, b); err != nil {
			return nil, fmt.Errorf("%w: truncated block %d: %v", ErrBadImage, i, err)
		}
		d.store(i, 0, b)
	}
	return d, nil
}
