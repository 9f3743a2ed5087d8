package spill

import (
	"testing"
	"time"

	"ffsva/internal/device"
	"ffsva/internal/frame"
	"ffsva/internal/vclock"
)

func mkFrame(seq int64) *frame.Frame {
	f := frame.New(2, 2)
	f.Seq = seq
	return f
}

func TestWriteReadOrder(t *testing.T) {
	clk := vclock.NewVirtual()
	st := New(clk, nil, nil)
	var got []int64
	clk.Go("writer", func() {
		for i := int64(0); i < 50; i++ {
			st.Write(mkFrame(i))
		}
		st.Close()
	})
	clk.Go("reader", func() {
		for {
			f, ok := st.Read()
			if !ok {
				return
			}
			got = append(got, f.Seq)
			st.Delivered()
		}
	})
	clk.Run()
	if len(got) != 50 {
		t.Fatalf("read %d frames", len(got))
	}
	for i, s := range got {
		if s != int64(i) {
			t.Fatalf("order violated at %d: %d", i, s)
		}
	}
}

func TestPendingIncludesInFlight(t *testing.T) {
	clk := vclock.NewVirtual()
	st := New(clk, nil, nil)
	clk.Go("p", func() {
		st.Write(mkFrame(0))
		st.Write(mkFrame(1))
		if st.Pending() != 2 {
			t.Errorf("pending = %d, want 2", st.Pending())
		}
		f, ok := st.Read()
		if !ok || f.Seq != 0 {
			t.Fatalf("read = %v, %v", f, ok)
		}
		// Read but not delivered: still owed to the pipeline.
		if st.Pending() != 2 {
			t.Errorf("pending after read = %d, want 2", st.Pending())
		}
		st.Delivered()
		if st.Pending() != 1 {
			t.Errorf("pending after delivered = %d, want 1", st.Pending())
		}
	})
	clk.Run()
}

func TestChargesStorageDevice(t *testing.T) {
	clk := vclock.NewVirtual()
	disk := device.New(clk, "ssd", device.Disk, 1)
	st := New(clk, disk, device.Calibrated())
	clk.Go("p", func() {
		for i := int64(0); i < 10; i++ {
			st.Write(mkFrame(i))
		}
		st.Close()
		for {
			if _, ok := st.Read(); !ok {
				break
			}
			st.Delivered()
		}
	})
	clk.Run()
	want := 20 * device.Calibrated()[device.ModelSpill].PerFrame // 10 writes + 10 reads
	if got := disk.Stats().Busy; got != want {
		t.Fatalf("disk busy = %v, want %v", got, want)
	}
	if clk.Now() != want {
		t.Fatalf("elapsed = %v, want %v", clk.Now(), want)
	}
}

func TestCloseUnblocksReader(t *testing.T) {
	clk := vclock.NewVirtual()
	st := New(clk, nil, nil)
	done := false
	clk.Go("reader", func() {
		if _, ok := st.Read(); ok {
			t.Error("Read returned frame from empty closed store")
		}
		done = true
	})
	clk.Go("closer", func() {
		clk.Sleep(time.Second)
		st.Close()
	})
	clk.Run()
	if !done {
		t.Fatal("reader never unblocked")
	}
}

func TestStats(t *testing.T) {
	clk := vclock.NewVirtual()
	st := New(clk, nil, nil)
	clk.Go("p", func() {
		st.Write(mkFrame(0))
		st.Write(mkFrame(1))
		st.Read()
		st.Delivered()
	})
	clk.Run()
	s := st.Stats()
	if s.Writes != 2 || s.Reads != 1 || s.MaxDepth != 2 {
		t.Fatalf("stats = %+v", s)
	}
}
