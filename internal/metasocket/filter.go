package metasocket

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"

	"repro/internal/cipherkit"
)

// Filter is one stage of a MetaSocket chain. Process consumes one packet
// and emits zero or more packets (encryption and compression are 1:1; FEC
// emits extra parity packets and may reconstruct lost ones).
//
// A filter's methods are called from a single socket goroutine at a time;
// stateful filters need no internal locking.
type Filter interface {
	// Name identifies the filter instance within its chain; chain
	// recomposition operations address filters by name. By convention it
	// is the adaptive component name ("E1", "D3", ...).
	Name() string
	// Process transforms one packet, appending what it emits to dst (the
	// chain's scratch) and returning the extended slice.
	//
	// A payload is borrowed for the duration of the call it is passed to;
	// whoever keeps bytes past the call copies them. So p.Payload is the
	// filter's to read until it returns and no longer, and a payload it
	// emits may sit in a buffer the filter instance owns, which stays
	// valid until that instance's next Process. Enc stacks are immutable
	// and shared: replace them (PushEnc, PopEnc), never write through.
	Process(dst []Packet, p Packet) ([]Packet, error)
}

// EncoderFilter encrypts packet payloads with a cipher, implementing the
// paper's DES encoder components (E1, E2).
type EncoderFilter struct {
	name   string
	cipher *cipherkit.Cipher
	// plain is the stack a plain input leaves with: the cipher's tag
	// alone, built once and shared by every packet.
	plain []string
	// buf holds the ciphertext of the packet last processed.
	buf []byte
}

// NewEncoder builds an encoder filter with the given component name.
func NewEncoder(name string, c *cipherkit.Cipher) *EncoderFilter {
	return &EncoderFilter{name: name, cipher: c, plain: []string{c.Name()}}
}

// Name implements Filter.
func (f *EncoderFilter) Name() string { return f.name }

// Process implements Filter: it encrypts the payload and pushes the
// cipher's tag.
//
//safeadaptvet:hotpath
func (f *EncoderFilter) Process(dst []Packet, p Packet) ([]Packet, error) {
	f.buf = f.cipher.AppendEncrypt(f.buf[:0], p.Payload)
	//safeadaptvet:allow hotpath -- dst is the chain's scratch, kept across packets: it grows until it holds the widest fan-out the chain has produced
	return append(dst, p.pushShared(f.plain, f.buf)), nil
}

// DecoderFilter decrypts packet payloads, implementing the paper's DES
// decoder components (D1–D5). Each decoder implements the paper's bypass
// functionality: "when it receives a packet not encoded by the
// corresponding encoder, it simply forwards the packet to the next filter
// in the chain."
type DecoderFilter struct {
	name    string
	ciphers map[string]*cipherkit.Cipher // by tag
	// buf holds the plaintext of the packet last decoded.
	buf []byte
}

// NewDecoder builds a decoder accepting the given ciphers. A single
// cipher gives an ordinary decoder (D1, D3, D4, D5); two give the paper's
// 128/64-compatible decoder (D2).
func NewDecoder(name string, ciphers ...*cipherkit.Cipher) *DecoderFilter {
	m := make(map[string]*cipherkit.Cipher, len(ciphers))
	for _, c := range ciphers {
		m[c.Name()] = c
	}
	return &DecoderFilter{name: name, ciphers: m}
}

// Name implements Filter.
func (f *DecoderFilter) Name() string { return f.name }

// Accepts reports whether the decoder can decode the given encoding tag.
func (f *DecoderFilter) Accepts(tag string) bool {
	_, ok := f.ciphers[tag]
	return ok
}

// Process implements Filter: packets whose outermost encoding matches one
// of the decoder's ciphers are decrypted; others bypass unchanged.
//
//safeadaptvet:hotpath
func (f *DecoderFilter) Process(dst []Packet, p Packet) ([]Packet, error) {
	if c, ok := f.ciphers[p.TopEnc()]; ok {
		var err error
		if f.buf, err = c.AppendDecrypt(f.buf[:0], p.Payload); err != nil {
			//safeadaptvet:allow hotpath -- error path: the packet failed its integrity check, the boxing happens after the hot path failed
			return dst, fmt.Errorf("decoder %s: %w", f.name, err)
		}
		p = p.PopEnc(f.buf)
	}
	//safeadaptvet:allow hotpath -- dst is the chain's scratch, kept across packets: it grows until it holds the widest fan-out the chain has produced
	return append(dst, p), nil
}

// flateStack is the stack a plain payload leaves the compressor with.
var flateStack = []string{"flate"}

// CompressFilter deflate-compresses payloads — one of the additional
// filter kinds the paper lists ("filters can perform encryption,
// decryption, forward error correction, compression, and so forth").
type CompressFilter struct {
	name string
	// buf holds the compressed payload of the packet last processed; w
	// writes into it and is reset, not rebuilt, per packet.
	buf bytes.Buffer
	w   *flate.Writer
}

// NewCompress builds a compression filter.
func NewCompress(name string) *CompressFilter { return &CompressFilter{name: name} }

// Name implements Filter.
func (f *CompressFilter) Name() string { return f.name }

// Process implements Filter.
func (f *CompressFilter) Process(dst []Packet, p Packet) ([]Packet, error) {
	f.buf.Reset()
	if f.w == nil {
		w, err := flate.NewWriter(&f.buf, flate.BestSpeed)
		if err != nil {
			return dst, fmt.Errorf("compress %s: %w", f.name, err)
		}
		f.w = w
	} else {
		f.w.Reset(&f.buf)
	}
	if _, err := f.w.Write(p.Payload); err != nil {
		return dst, fmt.Errorf("compress %s: %w", f.name, err)
	}
	if err := f.w.Close(); err != nil {
		return dst, fmt.Errorf("compress %s: %w", f.name, err)
	}
	return append(dst, p.pushShared(flateStack, f.buf.Bytes())), nil
}

// DecompressFilter reverses CompressFilter, with bypass for uncompressed
// packets.
type DecompressFilter struct {
	name string
	// buf holds the inflated payload of the packet last processed; r
	// reads src and is reset, not rebuilt, per packet.
	buf bytes.Buffer
	src bytes.Reader
	r   io.ReadCloser
}

// NewDecompress builds a decompression filter.
func NewDecompress(name string) *DecompressFilter { return &DecompressFilter{name: name} }

// Name implements Filter.
func (f *DecompressFilter) Name() string { return f.name }

// Process implements Filter.
func (f *DecompressFilter) Process(dst []Packet, p Packet) ([]Packet, error) {
	if p.TopEnc() != "flate" {
		return append(dst, p), nil // bypass
	}
	f.src.Reset(p.Payload)
	if f.r == nil {
		f.r = flate.NewReader(&f.src)
	} else if err := f.r.(flate.Resetter).Reset(&f.src, nil); err != nil {
		return dst, fmt.Errorf("decompress %s: %w", f.name, err)
	}
	f.buf.Reset()
	if _, err := f.buf.ReadFrom(f.r); err != nil {
		return dst, fmt.Errorf("decompress %s: %w", f.name, err)
	}
	if err := f.r.Close(); err != nil {
		return dst, fmt.Errorf("decompress %s: %w", f.name, err)
	}
	return append(dst, p.PopEnc(f.buf.Bytes())), nil
}

// PassthroughFilter forwards packets unchanged; useful as a placeholder in
// tests and ablations.
type PassthroughFilter struct {
	name string
}

// NewPassthrough builds a passthrough filter.
func NewPassthrough(name string) *PassthroughFilter { return &PassthroughFilter{name: name} }

// Name implements Filter.
func (f *PassthroughFilter) Name() string { return f.name }

// Process implements Filter.
func (f *PassthroughFilter) Process(dst []Packet, p Packet) ([]Packet, error) {
	return append(dst, p), nil
}
