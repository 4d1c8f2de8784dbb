// Package cipherkit implements the encryption substrate of the case
// study: the paper's filters perform "DES 64-bit" and "DES 128-bit"
// encoding/decoding. We implement two from-scratch Feistel block ciphers
// with 64- and 128-bit keys. Cryptographic strength is irrelevant to the
// reproduction — what matters is that a packet encoded with one cipher is
// not decodable by the other, that mis-decoding is *detected* (so unsafe
// adaptations measurably corrupt data), and that decoders can recognize
// foreign packets and bypass them (the paper's bypass functionality, which
// works off the packet tag carried outside the ciphertext).
package cipherkit

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// BlockSize is the Feistel block size in bytes.
const BlockSize = 8

// Standard key sizes.
const (
	KeySize64  = 8  // "DES 64-bit"
	KeySize128 = 16 // "DES 128-bit"
)

// maxRounds bounds the key schedule: the 128-bit cipher's 20 rounds.
const maxRounds = 20

// ErrIntegrity is returned by Decrypt when the embedded checksum does not
// match — the ciphertext was produced by a different cipher or key, or was
// tampered with.
var ErrIntegrity = errors.New("cipherkit: integrity check failed")

// errLength is returned for a ciphertext that is not a whole, positive
// number of blocks. It carries no length so that refusing a hostile
// datagram costs the data plane nothing.
var errLength = fmt.Errorf("cipherkit: ciphertext length is not a positive multiple of %d", BlockSize)

// Cipher is a Feistel block cipher with a fixed round-key schedule.
// Ciphers are immutable and safe for concurrent use.
type Cipher struct {
	name     string
	rounds   int
	roundKey [maxRounds]uint32
}

// New64 builds the 64-bit-key cipher ("DES 64-bit" in the paper).
func New64(key []byte) (*Cipher, error) {
	if len(key) != KeySize64 {
		return nil, fmt.Errorf("cipherkit: 64-bit cipher requires %d-byte key, got %d", KeySize64, len(key))
	}
	return newCipher("des64", key, 16), nil
}

// New128 builds the 128-bit-key cipher ("DES 128-bit" in the paper).
func New128(key []byte) (*Cipher, error) {
	if len(key) != KeySize128 {
		return nil, fmt.Errorf("cipherkit: 128-bit cipher requires %d-byte key, got %d", KeySize128, len(key))
	}
	return newCipher("des128", key, maxRounds), nil
}

func newCipher(name string, key []byte, rounds int) *Cipher {
	c := &Cipher{name: name, rounds: rounds}
	// Key schedule: a xorshift generator seeded from the key material
	// expands into one 32-bit subkey per round.
	var seed uint64 = 0x9e3779b97f4a7c15
	for i, b := range key {
		seed ^= uint64(b) << (uint(i%8) * 8)
		seed = xorshift(seed)
	}
	for r := 0; r < rounds; r++ {
		seed = xorshift(seed)
		c.roundKey[r] = uint32(seed >> 16)
	}
	return c
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// Name returns "des64" or "des128"; packets carry it as their encoding
// tag, which is what decoder bypass keys on.
func (c *Cipher) Name() string { return c.name }

// feistelF is the round function.
func feistelF(r, k uint32) uint32 {
	x := r ^ k
	x = x*0x85ebca6b + 0xc2b2ae35
	x ^= x >> 13
	x = x * 0x27d4eb2f
	x ^= x >> 15
	return x
}

// A block is handled as one big-endian uint64: left half in the high
// word, right half in the low one.

func (c *Cipher) encryptBlock(b uint64) uint64 {
	l, r := uint32(b>>32), uint32(b)
	for _, k := range c.roundKey[:c.rounds] {
		l, r = r, l^feistelF(r, k)
	}
	// Final swap undone, per standard Feistel construction.
	return uint64(r)<<32 | uint64(l)
}

func (c *Cipher) decryptBlock(b uint64) uint64 {
	r, l := uint32(b>>32), uint32(b)
	keys := c.roundKey[:c.rounds]
	for i := len(keys) - 1; i >= 0; i-- {
		l, r = r^feistelF(l, keys[i]), l
	}
	return uint64(l)<<32 | uint64(r)
}

// decrypt4 is decryptBlock over four independent blocks, their rounds
// interleaved so the four dependency chains overlap in the pipeline.
func (c *Cipher) decrypt4(b0, b1, b2, b3 uint64) (uint64, uint64, uint64, uint64) {
	r0, l0 := uint32(b0>>32), uint32(b0)
	r1, l1 := uint32(b1>>32), uint32(b1)
	r2, l2 := uint32(b2>>32), uint32(b2)
	r3, l3 := uint32(b3>>32), uint32(b3)
	keys := c.roundKey[:c.rounds]
	for i := len(keys) - 1; i >= 0; i-- {
		k := keys[i]
		l0, r0 = r0^feistelF(l0, k), l0
		l1, r1 = r1^feistelF(l1, k), l1
		l2, r2 = r2^feistelF(l2, k), l2
		l3, r3 = r3^feistelF(l3, k), l3
	}
	return uint64(l0)<<32 | uint64(r0), uint64(l1)<<32 | uint64(r1),
		uint64(l2)<<32 | uint64(r2), uint64(l3)<<32 | uint64(r3)
}

// fnv32a is FNV-1a over b (hash/fnv's New32a without the interface).
func fnv32a(b []byte) uint32 {
	h := uint32(2166136261)
	for _, x := range b {
		h ^= uint32(x)
		h *= 16777619
	}
	return h
}

// AppendEncrypt encrypts the plaintext and appends the ciphertext to dst,
// which must not overlap it; with enough capacity in dst it allocates
// nothing. The output embeds the plaintext length and an FNV-1a checksum
// so AppendDecrypt detects decoding with the wrong cipher. Layout before
// block encryption:
//
//	[4-byte length][4-byte fnv32a(plaintext)][plaintext][zero padding]
//
//safeadaptvet:hotpath
func (c *Cipher) AppendEncrypt(dst, plaintext []byte) []byte {
	padded := (8 + len(plaintext) + BlockSize - 1) / BlockSize * BlockSize
	dst = slices.Grow(dst, padded)
	out := dst[len(dst) : len(dst)+padded]
	dst = dst[:len(dst)+padded]

	// CBC-style chaining with a fixed zero IV keeps identical plaintext
	// blocks from producing identical ciphertext blocks. Each block needs
	// its predecessor's ciphertext, so encryption is serial.
	prev := c.encryptBlock(uint64(len(plaintext))<<32 | uint64(fnv32a(plaintext)))
	binary.BigEndian.PutUint64(out, prev)
	out = out[BlockSize:]
	for len(plaintext) >= BlockSize {
		prev = c.encryptBlock(binary.BigEndian.Uint64(plaintext) ^ prev)
		binary.BigEndian.PutUint64(out, prev)
		plaintext, out = plaintext[BlockSize:], out[BlockSize:]
	}
	if len(plaintext) > 0 {
		var last [BlockSize]byte
		copy(last[:], plaintext)
		binary.BigEndian.PutUint64(out, c.encryptBlock(binary.BigEndian.Uint64(last[:])^prev))
	}
	return dst
}

// AppendDecrypt reverses AppendEncrypt, verifying the embedded length and
// checksum, and appends the plaintext to dst, which must not overlap the
// ciphertext; with capacity for len(ciphertext)-8 more bytes in dst it
// allocates nothing. On error it returns dst unchanged.
//
//safeadaptvet:hotpath
func (c *Cipher) AppendDecrypt(dst, ciphertext []byte) ([]byte, error) {
	if len(ciphertext) == 0 || len(ciphertext)%BlockSize != 0 {
		return dst, errLength
	}
	prev := binary.BigEndian.Uint64(ciphertext)
	header := c.decryptBlock(prev)
	n, sum := header>>32, uint32(header)
	ciphertext = ciphertext[BlockSize:]
	if n > uint64(len(ciphertext)) {
		return dst, ErrIntegrity
	}
	dst = slices.Grow(dst, len(ciphertext))
	body := dst[len(dst) : len(dst)+len(ciphertext)]

	// Decryption has no chain dependency — block i needs only ciphertext
	// blocks i and i-1 — so four blocks run per iteration.
	out := body
	for len(ciphertext) >= 4*BlockSize {
		c0 := binary.BigEndian.Uint64(ciphertext)
		c1 := binary.BigEndian.Uint64(ciphertext[8:])
		c2 := binary.BigEndian.Uint64(ciphertext[16:])
		c3 := binary.BigEndian.Uint64(ciphertext[24:])
		p0, p1, p2, p3 := c.decrypt4(c0, c1, c2, c3)
		binary.BigEndian.PutUint64(out, p0^prev)
		binary.BigEndian.PutUint64(out[8:], p1^c0)
		binary.BigEndian.PutUint64(out[16:], p2^c1)
		binary.BigEndian.PutUint64(out[24:], p3^c2)
		prev = c3
		ciphertext, out = ciphertext[4*BlockSize:], out[4*BlockSize:]
	}
	for len(ciphertext) >= BlockSize {
		cur := binary.BigEndian.Uint64(ciphertext)
		binary.BigEndian.PutUint64(out, c.decryptBlock(cur)^prev)
		prev = cur
		ciphertext, out = ciphertext[BlockSize:], out[BlockSize:]
	}
	if fnv32a(body[:n]) != sum {
		return dst, ErrIntegrity
	}
	return dst[:len(dst)+int(n)], nil
}

// Encrypt is AppendEncrypt into a fresh buffer.
func (c *Cipher) Encrypt(plaintext []byte) []byte { return c.AppendEncrypt(nil, plaintext) }

// Decrypt is AppendDecrypt into a fresh buffer.
func (c *Cipher) Decrypt(ciphertext []byte) ([]byte, error) { return c.AppendDecrypt(nil, ciphertext) }

// DefaultKey64 and DefaultKey128 are the fixed demo keys used by the case
// study binaries and tests. Real deployments would provision their own.
var (
	DefaultKey64  = []byte("RAPIDwre")
	DefaultKey128 = []byte("RAPIDware-DSN04!")
)

// MustDefault64 returns the 64-bit cipher under the default demo key.
func MustDefault64() *Cipher {
	c, err := New64(DefaultKey64)
	if err != nil {
		panic(err)
	}
	return c
}

// MustDefault128 returns the 128-bit cipher under the default demo key.
func MustDefault128() *Cipher {
	c, err := New128(DefaultKey128)
	if err != nil {
		panic(err)
	}
	return c
}
