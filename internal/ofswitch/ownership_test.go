package ofswitch

import (
	"bytes"
	"testing"
	"time"

	"escape/internal/openflow"
	"escape/internal/pkt"
)

// install adds a flow entry straight into the table, bypassing the
// controller channel.
func install(s *Switch, m openflow.Match, actions ...openflow.Action) {
	s.Table().Add(&FlowEntry{Match: m, Priority: 1, Actions: actions})
}

func recvFrame(t *testing.T, ch chan []byte, what string) []byte {
	t.Helper()
	select {
	case f := <-ch:
		return f
	case <-time.After(time.Second):
		t.Fatalf("no frame %s", what)
		return nil
	}
}

func sameBuffer(a, b []byte) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}

// A single output hands the switch's frame on as it is: no copy.
func TestSingleOutputHandsFrameOver(t *testing.T) {
	s, chans := testSwitch(t, 2)
	install(s, openflow.MatchAll(), openflow.ActionOutput{Port: 2})
	frame := testFrame(t, 80)
	s.Input(1, frame)
	if out := recvFrame(t, chans[2], "on port 2"); !sameBuffer(out, frame) {
		t.Error("single output copied the frame")
	}
}

// Flood and multi-output actions give every port its own buffer, and an
// action after an output does not reach the frame already sent.
func TestFloodAndMultiOutputCopyPerPort(t *testing.T) {
	s, chans := testSwitch(t, 4)
	install(s, matchInPort(1), openflow.ActionOutput{Port: openflow.PortFlood})
	install(s, matchInPort(2),
		openflow.ActionOutput{Port: 3},
		openflow.ActionSetDL{Dst: true, MAC: pkt.NthMAC(99)},
		openflow.ActionOutput{Port: 4})

	orig := testFrame(t, 80)
	s.Input(1, append([]byte(nil), orig...))
	flooded := [][]byte{recvFrame(t, chans[2], "flooded to 2"),
		recvFrame(t, chans[3], "flooded to 3"), recvFrame(t, chans[4], "flooded to 4")}
	for i, a := range flooded {
		for _, b := range flooded[i+1:] {
			if sameBuffer(a, b) {
				t.Fatal("flood shares one buffer between ports")
			}
		}
	}
	flooded[0][0] ^= 0xff
	for _, f := range flooded[1:] {
		if !bytes.Equal(f, orig) {
			t.Error("writing one flooded frame changed another")
		}
	}

	s.Input(2, append([]byte(nil), orig...))
	first := recvFrame(t, chans[3], "on port 3")
	second := recvFrame(t, chans[4], "on port 4")
	if sameBuffer(first, second) {
		t.Fatal("two outputs share one buffer")
	}
	if !bytes.Equal(first, orig) {
		t.Error("set-field after the first output rewrote its frame")
	}
	if s, _ := pkt.Summarize(second); s.Dst != pkt.NthMAC(99) {
		t.Errorf("second output dst = %s, want the rewritten MAC", s.Dst)
	}
}

// A PACKET_IN never aliases a frame the same actions forward: the
// controller sees the frame as it was when the output to it ran.
func TestPacketInDoesNotAliasForwardedFrame(t *testing.T) {
	s, chans := testSwitch(t, 2)
	conn := fakeController(t, s)
	install(s, openflow.MatchAll(),
		openflow.ActionOutput{Port: openflow.PortController},
		openflow.ActionSetDL{Dst: true, MAC: pkt.NthMAC(77)},
		openflow.ActionOutput{Port: 2})
	orig := testFrame(t, 80)
	s.Input(1, append([]byte(nil), orig...))
	fwd := recvFrame(t, chans[2], "on port 2")
	fwd[0] ^= 0xff // the receiver owns the forwarded frame
	pi, ok := mustRead(t, conn).(*openflow.PacketIn)
	if !ok {
		t.Fatal("no PACKET_IN")
	}
	if !bytes.Equal(pi.Data, orig) {
		t.Errorf("PACKET_IN data = % x\nwant the frame before the rewrite % x", pi.Data, orig)
	}
}

// A table miss buffers the frame for the controller; releasing it sends
// that buffer on exactly once.
func TestBufferedFrameReleasedOnce(t *testing.T) {
	s, chans := testSwitch(t, 2)
	conn := fakeController(t, s)
	frame := testFrame(t, 80)
	s.Input(1, frame)
	pi := mustRead(t, conn).(*openflow.PacketIn)
	out := &openflow.PacketOut{BufferID: pi.BufferID, InPort: openflow.PortNone,
		Actions: []openflow.Action{openflow.ActionOutput{Port: 2}}}
	for xid := uint32(10); xid < 12; xid++ {
		if err := openflow.WriteMessage(conn, out, xid); err != nil {
			t.Fatal(err)
		}
	}
	if got := recvFrame(t, chans[2], "released"); !bytes.Equal(got, testFrame(t, 80)) {
		t.Error("released frame differs from the buffered one")
	}
	select {
	case <-chans[2]:
		t.Error("buffer released twice")
	case <-time.After(50 * time.Millisecond):
	}
}

// Forwarding an owned frame through one output, with a VLAN tag set or
// stripped on the way, allocates nothing.
func TestInputSingleOutputAllocatesNothing(t *testing.T) {
	s := New("s1", 1, Config{})
	t.Cleanup(s.Stop)
	var held []byte
	for no := uint16(1); no <= 2; no++ {
		if err := s.AddPort(&Port{No: no, Transmit: func(f []byte) { held = f }}); err != nil {
			t.Fatal(err)
		}
	}
	install(s, matchInPort(1), openflow.ActionSetVLAN{VLAN: 5}, openflow.ActionOutput{Port: 2})
	install(s, matchInPort(2), openflow.ActionStripVLAN{}, openflow.ActionOutput{Port: 1})
	frame := testFrame(t, 80)
	held = append(make([]byte, 0, len(frame)+pkt.VLANTagLen), frame...)
	allocs := testing.AllocsPerRun(1000, func() {
		s.Input(1, held) // tagged in place, out of port 2
		s.Input(2, held) // stripped in place, out of port 1
	})
	if allocs != 0 {
		t.Errorf("Input allocates %.1f objects per tag/strip round trip", allocs)
	}
	if !bytes.Equal(held, frame) {
		t.Error("tag/strip round trip changed the frame")
	}
	if s.TableMisses.Load() != 0 {
		t.Errorf("%d table misses", s.TableMisses.Load())
	}
}
