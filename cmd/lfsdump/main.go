// Command lfsdump inspects the on-disk structure of the log-structured file
// system. Because devices in this reproduction are simulated, the tool
// builds a demonstration image, applies a configurable amount of churn
// (writes, overwrites, deletions — enough to exercise the cleaner — and a few
// commit forces, whole-block and summary-only), then dumps the superblock, log position, segment usage
// table, the partial segments at the log head, inode map, and cleaner
// statistics, and finally audits the usage accounting and verifies
// crash recovery by remounting.
//
// Usage:
//
//	lfsdump                 # default churn
//	lfsdump -files 40 -rounds 20 -size 65536
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/disk"
	"repro/internal/lfs"
	"repro/internal/sim"
)

func main() {
	files := flag.Int("files", 20, "number of files to churn")
	rounds := flag.Int("rounds", 10, "overwrite rounds")
	size := flag.Int("size", 32*1024, "file size in bytes")
	mb := flag.Int64("disk-mb", 32, "simulated disk size in MB")
	save := flag.String("save", "", "save the resulting device image to this file")
	load := flag.String("load", "", "load a device image instead of generating churn")
	flag.Parse()

	clk := sim.NewClock()
	model := sim.RZ55Model()
	maxMB := disk.MaxBlocks * int64(model.BlockSize) >> 20
	switch {
	case *mb < 1 || *mb > maxMB:
		fatal(fmt.Errorf("-disk-mb %d: want 1 to %d", *mb, maxMB))
	case *files < 1:
		fatal(fmt.Errorf("-files %d: want at least 1", *files))
	case *rounds < 1:
		fatal(fmt.Errorf("-rounds %d: want at least 1", *rounds))
	case *size < 0 || int64(*size) > *mb<<20:
		fatal(fmt.Errorf("-size %d: want 0 to the disk's %d bytes", *size, *mb<<20))
	}
	model.NumBlocks = *mb << 20 / int64(model.BlockSize)

	if *load != "" {
		inspectImage(*load, model, clk)
		return
	}

	dev := disk.New(model, clk)
	fsys, err := lfs.Format(dev, clk, lfs.Options{})
	if err != nil {
		fatal(err)
	}

	// Churn: create, overwrite, and delete files so the image shows live
	// and dead blocks, partial segments, and cleaner activity.
	buf := make([]byte, *size)
	for r := 0; r < *rounds; r++ {
		for i := 0; i < *files; i++ {
			for j := range buf {
				buf[j] = byte(r + i + j)
			}
			path := fmt.Sprintf("/churn%02d", i)
			f, err := fsys.Open(path)
			if err != nil {
				f, err = fsys.Create(path)
			}
			if err != nil {
				fatal(err)
			}
			if _, err := f.WriteAt(buf, 0); err != nil {
				fatal(err)
			}
			f.Close()
		}
		if r%3 == 2 {
			// Delete a file to exercise deletion records.
			_ = fsys.Remove(fmt.Sprintf("/churn%02d", r%*files))
		}
		if err := fsys.Sync(); err != nil {
			fatal(err)
		}
	}

	// Commit forces: overwrite a block in place and fsync the file. Nothing
	// but a block address changes, so these partials carry no inode pack and
	// the remount below has to rebuild the pointers from their summaries.
	for i := 0; i < *files && i < 4; i++ {
		f, err := fsys.Open(fmt.Sprintf("/churn%02d", i))
		if err != nil {
			continue // deleted by the churn
		}
		page := buf[:min(len(buf), model.BlockSize)]
		for j := range page {
			page[j] = byte(0xc0 + i + j)
		}
		if _, err := f.WriteAt(page, 0); err != nil {
			fatal(err)
		}
		if err := f.Sync(); err != nil {
			fatal(err)
		}
		// A few bytes more, forced again: they fit the summary block, so the
		// force writes that block alone, the bytes in a patch record.
		if _, err := f.WriteAt([]byte(fmt.Sprintf("commit %d", i)), int64(64*i+8)); err != nil {
			fatal(err)
		}
		if err := f.Sync(); err != nil {
			fatal(err)
		}
		f.Close()
	}

	if err := fsys.Dump(os.Stdout); err != nil {
		fatal(err)
	}

	maintained, actual, diff, err := fsys.AuditUsage()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nusage audit: maintained=%d actual=%d divergent-segments=%d\n", maintained, actual, len(diff))
	if len(diff) > 0 {
		fmt.Printf("  DIVERGENCE: %v\n", diff)
		os.Exit(1)
	}

	// Crash-recovery check: remount from the device and re-audit.
	fs2, err := lfs.Mount(dev, clk, lfs.Options{})
	if err != nil {
		fatal(fmt.Errorf("remount: %w", err))
	}
	m2, a2, d2, err := fs2.AuditUsage()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("after remount: maintained=%d actual=%d divergent-segments=%d\n", m2, a2, len(d2))
	rep, err := fs2.Fsck()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("fsck: %d files, %d dirs, %d blocks, %d problems\n", rep.Files, rep.Dirs, rep.Blocks, len(rep.Problems))
	for _, pb := range rep.Problems {
		fmt.Printf("  PROBLEM: %s\n", pb)
	}
	fmt.Printf("simulated elapsed time: %v\n", clk.Now())

	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			fatal(err)
		}
		if err := dev.SaveImage(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("image saved to %s\n", *save)
	}
}

// inspectImage mounts and dumps a previously saved device image.
func inspectImage(path string, model sim.DiskModel, clk *sim.Clock) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	dev, err := disk.LoadImage(model, clk, f)
	if err != nil {
		fatal(err)
	}
	fsys, err := lfs.Mount(dev, clk, lfs.Options{})
	if err != nil {
		fatal(err)
	}
	if err := fsys.Dump(os.Stdout); err != nil {
		fatal(err)
	}
	m, a, diff, err := fsys.AuditUsage()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nusage audit: maintained=%d actual=%d divergent-segments=%d\n", m, a, len(diff))
	rep, err := fsys.Fsck()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("fsck: %d files, %d dirs, %d blocks, %d problems\n", rep.Files, rep.Dirs, rep.Blocks, len(rep.Problems))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "lfsdump: %v\n", err)
	os.Exit(1)
}
