package openflow

import (
	"fmt"
	"testing"

	"escape/internal/pkt"
)

// referenceExtractFields is the pkt.Decode-based field extractor that
// ExtractFields replaced: it builds a full pkt.Packet and reads the
// layers back. The fuzzer holds the allocation-free extractor to it.
func referenceExtractFields(frame []byte, inPort uint16) (PacketFields, error) {
	f := PacketFields{InPort: inPort, DLVLAN: VLANNone}
	dec := pkt.Decode(frame)
	eth := dec.Ethernet()
	if eth == nil {
		return f, fmt.Errorf("openflow: frame has no Ethernet header")
	}
	f.DLSrc = eth.Src
	f.DLDst = eth.Dst
	f.DLType = uint16(eth.EtherType)
	if v, ok := dec.Layer(pkt.LayerTypeVLAN).(*pkt.VLAN); ok {
		f.DLVLAN = v.ID
		f.VLANPCP = v.Priority
		f.DLType = uint16(v.EtherType)
	}
	if ip := dec.IPv4Layer(); ip != nil {
		f.NWTOS = ip.TOS
		f.NWProto = uint8(ip.Protocol)
		f.NWSrc = ip.Src
		f.NWDst = ip.Dst
	} else if a, ok := dec.Layer(pkt.LayerTypeARP).(*pkt.ARP); ok {
		f.NWProto = uint8(a.Op)
		f.NWSrc = a.SenderIP
		f.NWDst = a.TargetIP
	}
	if ft, ok := pkt.ExtractFiveTuple(dec); ok {
		f.TPSrc = ft.SrcPort
		f.TPDst = ft.DstPort
	}
	return f, nil
}

// extractSeedFrames are well-formed frames of every shape the extractor
// distinguishes: UDP, TCP, ICMP, ARP, VLAN-tagged, and a non-first IPv4
// fragment (whose transport header must not be read).
func extractSeedFrames(t testing.TB) [][]byte {
	t.Helper()
	udp, err := pkt.BuildUDP(omac1, omac2, oip1, oip2, 1000, 2000, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := pkt.BuildTCP(omac1, omac2, oip1, oip2, 80, 4321, pkt.TCPSyn, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	icmp, err := pkt.BuildICMPEcho(omac1, omac2, oip1, oip2, pkt.ICMPEchoRequest, 9, 3, []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	arp, err := pkt.BuildARPRequest(omac1, oip1, oip2)
	if err != nil {
		t.Fatal(err)
	}
	tagged, err := pkt.PushVLAN(udp, 42)
	if err != nil {
		t.Fatal(err)
	}
	taggedARP, err := pkt.PushVLAN(arp, 7)
	if err != nil {
		t.Fatal(err)
	}
	frag := append([]byte(nil), udp...)
	frag[14+6] = 0x00 // flags 0, fragment offset 0x0010
	frag[14+7] = 0x10
	return [][]byte{udp, tcp, icmp, arp, tagged, taggedARP, frag}
}

// FuzzExtractFields checks that the allocation-free extractor returns
// the same fields and error as the pkt.Decode-based reference on
// arbitrary bytes.
func FuzzExtractFields(f *testing.F) {
	for _, frame := range extractSeedFrames(f) {
		f.Add(frame, uint16(1))
		for _, cut := range []int{13, 14, 17, 18, 33, 34, 41, 42} {
			if cut < len(frame) {
				f.Add(frame[:cut], uint16(2))
			}
		}
	}
	f.Add([]byte{}, uint16(0))
	f.Fuzz(func(t *testing.T, frame []byte, inPort uint16) {
		got, gotErr := ExtractFields(frame, inPort)
		want, wantErr := referenceExtractFields(frame, inPort)
		if (gotErr == nil) != (wantErr == nil) ||
			gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("error = %v, reference %v", gotErr, wantErr)
		}
		if got != want {
			t.Fatalf("fields = %+v\nreference %+v", got, want)
		}
	})
}

func TestExtractFieldsAllocatesNothing(t *testing.T) {
	for _, frame := range extractSeedFrames(t) {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := ExtractFields(frame, 1); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("ExtractFields(%s) allocates %.1f objects", pkt.Decode(frame), allocs)
		}
	}
}
