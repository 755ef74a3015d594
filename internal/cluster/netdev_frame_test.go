package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// validFrame is one frame as frameWriter puts it on the wire: the gob
// type descriptors and a []float64 message, behind their length header.
func validFrame(t testing.TB) []byte {
	var wire bytes.Buffer
	fw := newFrameWriter(&wire, 1)
	if _, err := fw.writeMsg(&wireMsg{Src: 1, Tag: 7, Bytes: 16, Kind: payloadValue, Payload: []float64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	return wire.Bytes()
}

// fuzzSlack bounds what the receive path allocates besides the frame
// buffer: the bufio reader, the decoder's state, and gob's own capped
// up-front slice allocations.
const fuzzSlack = 16 << 20

// FuzzFrameReader feeds arbitrary bytes to the receive path (frame
// reader plus persistent gob decoder, as readLoop runs them). It must
// neither panic nor hang, and whatever the headers claim it must never
// allocate more than the frame cap plus fuzzSlack.
func FuzzFrameReader(f *testing.F) {
	frame := validFrame(f)
	f.Add(frame)
	f.Add(frame[:len(frame)-3])           // truncated body
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // header claiming 4 GiB
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fr := newFrameReader(bytes.NewReader(data), 1)
		dec := gob.NewDecoder(fr)
		// Every fetch consumes at least a 4-byte header, so the loop ends.
		for fr.fetch() == nil {
			var wm wireMsg
			if dec.Decode(&wm) != nil {
				break
			}
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > maxFrame+fuzzSlack {
			t.Fatalf("%d-byte input allocated %d bytes, over the %d-byte frame cap", len(data), got, maxFrame)
		}
	})
}

// TestFrameCap checks both ends of the cap: the reader rejects a header
// over it before allocating, and the writer refuses an oversized body
// before writing anything. Both errors name the peer and the length.
func TestFrameCap(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrame+1)
	err := newFrameReader(bytes.NewReader(hdr[:]), 3).fetch()
	if !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("reader: got %v, want errFrameTooLarge", err)
	}
	for _, want := range []string{"rank 3", fmt.Sprintf("%d-byte frame", maxFrame+1)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("reader error %q does not name %q", err, want)
		}
	}

	var wire bytes.Buffer
	fw := newFrameWriter(&wire, 2)
	fw.limit = 64
	_, err = fw.writeMsg(&wireMsg{Kind: payloadValue, Payload: make([]float64, 64)})
	if !errors.Is(err, errFrameTooLarge) || !strings.Contains(err.Error(), "to rank 2") {
		t.Fatalf("writer: got %v, want errFrameTooLarge naming rank 2", err)
	}
	if wire.Len() != 0 {
		t.Errorf("writer put %d bytes on the wire for a refused frame", wire.Len())
	}
}

// TestNetWorldCorruptHeaderDiagnosis connects a fake rank 1 that sends a
// header over the cap: rank 0's blocked receive must end with the
// dead-peer diagnosis carrying the frame error, not an allocation or a
// hang.
func TestNetWorldCorruptHeaderDiagnosis(t *testing.T) {
	addrs := netAddrs(t, 2)
	done := make(chan error, 1)
	go func() {
		w, err := NewNetWorld(NetConfig{Size: 2, Rank: 0, Network: "unix", Addrs: addrs}, DefaultOptions())
		if err != nil {
			done <- err
			return
		}
		defer w.Close()
		done <- w.Run(func(c *Comm) { Recv[int](c, 1, 1) })
	}()
	conn, err := dialRetry("unix", addrs[0], time.Now().Add(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() // held open: the diagnosis must come from the header
	var msg [8]byte
	binary.BigEndian.PutUint32(msg[:4], 1) // hello: rank 1
	binary.BigEndian.PutUint32(msg[4:], 0xFFFFFFFF)
	if _, err := conn.Write(msg[:]); err != nil {
		t.Fatal(err)
	}
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("corrupt header not diagnosed: rank 0 still blocked after 30s")
	}
	if err == nil {
		t.Fatal("rank 0 received past a corrupt header without error")
	}
	for _, want := range []string{"peer unreachable", "frame too large", "4294967295-byte frame from rank 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("diagnosis missing %q:\n%s", want, err)
		}
	}
}
