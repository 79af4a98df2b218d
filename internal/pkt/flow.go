package pkt

import (
	"fmt"
	"net/netip"
)

// FiveTuple identifies a transport flow. Zero values act as wildcards when
// used for human-readable matching in tools; OpenFlow matching uses
// openflow.Match instead.
type FiveTuple struct {
	Proto    IPProtocol
	Src, Dst netip.Addr
	SrcPort  uint16
	DstPort  uint16
}

// String implements fmt.Stringer.
func (ft FiveTuple) String() string {
	return fmt.Sprintf("p%d %s:%d>%s:%d", ft.Proto, ft.Src, ft.SrcPort, ft.Dst, ft.DstPort)
}

// Reverse returns the tuple with endpoints swapped.
func (ft FiveTuple) Reverse() FiveTuple {
	return FiveTuple{Proto: ft.Proto, Src: ft.Dst, Dst: ft.Src, SrcPort: ft.DstPort, DstPort: ft.SrcPort}
}

// ExtractFiveTuple pulls the transport flow out of a decoded packet.
// ok is false for non-IP packets. ICMP packets yield ports (Ident, Seq)=
// (SrcPort, DstPort) so that echo streams group naturally.
func ExtractFiveTuple(p *Packet) (ft FiveTuple, ok bool) {
	ip := p.IPv4Layer()
	if ip == nil {
		return ft, false
	}
	ft.Proto = ip.Protocol
	ft.Src = ip.Src
	ft.Dst = ip.Dst
	switch l := p.Layer(LayerTypeUDP); {
	case l != nil:
		u := l.(*UDP)
		ft.SrcPort, ft.DstPort = u.SrcPort, u.DstPort
	default:
		if l := p.Layer(LayerTypeTCP); l != nil {
			t := l.(*TCP)
			ft.SrcPort, ft.DstPort = t.SrcPort, t.DstPort
		} else if l := p.Layer(LayerTypeICMP); l != nil {
			ic := l.(*ICMP)
			ft.SrcPort, ft.DstPort = ic.Ident, ic.Seq
		}
	}
	return ft, true
}

// Summary of addressing information commonly needed by the emulator and
// switches without a full decode: destination/source MAC, VLAN ID (or -1),
// and EtherType after VLAN.
type Summary struct {
	Dst, Src  MAC
	VLANID    int // -1 if untagged
	EtherType EtherType
}

// Summarize performs a minimal parse of the Ethernet (+optional single VLAN)
// envelope. It avoids allocating layer structs on hot paths.
func Summarize(frame []byte) (Summary, error) {
	var s Summary
	if len(frame) < 14 {
		return s, ErrTooShort
	}
	copy(s.Dst[:], frame[0:6])
	copy(s.Src[:], frame[6:12])
	et := EtherType(uint16(frame[12])<<8 | uint16(frame[13]))
	s.VLANID = -1
	if et == EtherTypeVLAN {
		if len(frame) < 18 {
			return s, ErrTooShort
		}
		s.VLANID = int(uint16(frame[14])<<8|uint16(frame[15])) & 0x0fff
		et = EtherType(uint16(frame[16])<<8 | uint16(frame[17]))
	}
	s.EtherType = et
	return s, nil
}

// PushVLAN returns a copy of frame with an 802.1Q tag carrying id inserted
// after the Ethernet header. If the frame is already tagged the existing tag
// is rewritten instead (OpenFlow 1.0 SET_VLAN semantics).
func PushVLAN(frame []byte, id uint16) ([]byte, error) {
	out := make([]byte, len(frame), len(frame)+VLANTagLen)
	copy(out, frame)
	return PushVLANInPlace(out, id)
}

// PopVLAN returns a copy of frame with its outermost 802.1Q tag removed.
// Untagged frames are returned unchanged (copied).
func PopVLAN(frame []byte) ([]byte, error) {
	return PopVLANInPlace(append([]byte(nil), frame...))
}

// VLANTagLen is the length of an 802.1Q tag. Buffers with this much
// spare capacity take a tag in place (PushVLANInPlace).
const VLANTagLen = 4

// PushVLANInPlace is PushVLAN on a frame the caller owns: like append, it
// returns the tagged frame, which shares frame's buffer whenever the
// frame is already tagged or the buffer has VLANTagLen bytes of spare
// capacity, and is a fresh buffer otherwise.
func PushVLANInPlace(frame []byte, id uint16) ([]byte, error) {
	if len(frame) < 14 {
		return nil, ErrTooShort
	}
	if EtherType(uint16(frame[12])<<8|uint16(frame[13])) != EtherTypeVLAN {
		n := len(frame)
		if cap(frame)-n < VLANTagLen {
			frame = append(make([]byte, 0, n+VLANTagLen), frame...)
		}
		frame = frame[:n+VLANTagLen]
		copy(frame[16:], frame[12:n])
		frame[12] = byte(EtherTypeVLAN >> 8)
		frame[13] = byte(EtherTypeVLAN & 0xff)
	}
	frame[14] = byte(id >> 8 & 0x0f)
	frame[15] = byte(id)
	return frame, nil
}

// PopVLANInPlace is PopVLAN on a frame the caller owns: it removes the
// outermost tag by shifting the frame down inside its own buffer and
// returns the shortened frame. Untagged frames are returned as they are.
func PopVLANInPlace(frame []byte) ([]byte, error) {
	if len(frame) < 14 {
		return nil, ErrTooShort
	}
	if EtherType(uint16(frame[12])<<8|uint16(frame[13])) != EtherTypeVLAN {
		return frame, nil
	}
	if len(frame) < 18 {
		return nil, ErrTooShort
	}
	n := copy(frame[12:], frame[16:])
	return frame[:12+n], nil
}
