package cipherkit

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/fnv"
	"strings"
	"testing"
	"testing/quick"
)

func TestRoundTrip64(t *testing.T) {
	c := MustDefault64()
	for _, size := range []int{0, 1, 7, 8, 9, 255, 256, 4096} {
		pt := make([]byte, size)
		for i := range pt {
			pt[i] = byte(i * 31)
		}
		ct := c.Encrypt(pt)
		got, err := c.Decrypt(ct)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !bytes.Equal(got, pt) {
			t.Errorf("size %d: round trip mismatch", size)
		}
	}
}

func TestRoundTrip128(t *testing.T) {
	c := MustDefault128()
	pt := []byte("the quick brown fox jumps over the lazy dog")
	got, err := c.Decrypt(c.Encrypt(pt))
	if err != nil || !bytes.Equal(got, pt) {
		t.Errorf("round trip failed: %v", err)
	}
}

func TestCrossCipherDetected(t *testing.T) {
	c64 := MustDefault64()
	c128 := MustDefault128()
	ct := c64.Encrypt([]byte("secret payload"))
	if _, err := c128.Decrypt(ct); !errors.Is(err, ErrIntegrity) {
		t.Errorf("decrypting des64 ciphertext with des128 should fail integrity, got %v", err)
	}
	ct2 := c128.Encrypt([]byte("secret payload"))
	if _, err := c64.Decrypt(ct2); !errors.Is(err, ErrIntegrity) {
		t.Errorf("decrypting des128 ciphertext with des64 should fail integrity, got %v", err)
	}
}

func TestWrongKeyDetected(t *testing.T) {
	a, err := New64([]byte("key-AAAA"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New64([]byte("key-BBBB"))
	if err != nil {
		t.Fatal(err)
	}
	ct := a.Encrypt([]byte("hello world, this is a test"))
	if _, err := b.Decrypt(ct); !errors.Is(err, ErrIntegrity) {
		t.Errorf("wrong key should fail integrity, got %v", err)
	}
}

func TestTamperDetected(t *testing.T) {
	c := MustDefault64()
	ct := c.Encrypt([]byte("some data to protect against tampering"))
	ct[len(ct)/2] ^= 0x40
	if _, err := c.Decrypt(ct); err == nil {
		t.Error("tampered ciphertext should fail")
	}
}

func TestCiphertextDiffersFromPlaintext(t *testing.T) {
	c := MustDefault64()
	pt := bytes.Repeat([]byte{0xAA}, 64)
	ct := c.Encrypt(pt)
	if bytes.Contains(ct, pt[:16]) {
		t.Error("ciphertext leaks plaintext")
	}
	// CBC chaining: identical plaintext blocks must yield distinct
	// ciphertext blocks.
	if bytes.Equal(ct[8:16], ct[16:24]) {
		t.Error("identical plaintext blocks encrypt identically (no chaining)")
	}
}

func TestKeySizeValidation(t *testing.T) {
	if _, err := New64([]byte("short")); err == nil {
		t.Error("wrong 64-bit key size should fail")
	}
	if _, err := New128([]byte("short")); err == nil {
		t.Error("wrong 128-bit key size should fail")
	}
}

func TestDecryptMalformed(t *testing.T) {
	c := MustDefault64()
	for _, ct := range [][]byte{nil, {}, {1, 2, 3}, make([]byte, 12)} {
		if _, err := c.Decrypt(ct); err == nil {
			t.Errorf("Decrypt(%d bytes) should fail", len(ct))
		}
	}
}

func TestNames(t *testing.T) {
	if MustDefault64().Name() != "des64" {
		t.Error("64-bit cipher name")
	}
	if MustDefault128().Name() != "des128" {
		t.Error("128-bit cipher name")
	}
}

// TestPropertyRoundTrip round-trips random payloads through both ciphers.
func TestPropertyRoundTrip(t *testing.T) {
	c64 := MustDefault64()
	c128 := MustDefault128()
	f := func(pt []byte) bool {
		g64, err64 := c64.Decrypt(c64.Encrypt(pt))
		g128, err128 := c128.Decrypt(c128.Encrypt(pt))
		return err64 == nil && err128 == nil && bytes.Equal(g64, pt) && bytes.Equal(g128, pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropertyDeterministic: encryption is deterministic for a fixed key
// (no nonce), which the tests and CCS accounting rely on.
func TestPropertyDeterministic(t *testing.T) {
	c := MustDefault64()
	f := func(pt []byte) bool {
		return bytes.Equal(c.Encrypt(pt), c.Encrypt(pt))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// pattern is the plaintext the known-answer vectors were taken over.
func pattern(n int) []byte {
	pt := make([]byte, n)
	for i := range pt {
		pt[i] = byte(i*31 + 7)
	}
	return pt
}

// TestKnownAnswers pins the ciphertext, byte for byte, under the default
// keys: a kernel rewrite must not change what is on the wire. Long
// vectors are pinned by their SHA-256.
func TestKnownAnswers(t *testing.T) {
	vectors := []struct {
		cipher string
		n      int
		want   string
	}{
		{"des64", 0, "c255458f4cde237a"},
		{"des64", 1, "c13d614928cfc3bfc37a1e948dbdd4be"},
		{"des64", 7, "29a2d798f58ffe12639b83dffb22b5af"},
		{"des64", 8, "1d260cc70e75ffc181c3bdf5a6c93047"},
		{"des64", 9, "de6d10b1231b6f6ae542c96e327c1d380ba3c7aedeb4dabc"},
		{"des64", 256, "sha256:a367db276e7b800a1e6e81dd0d548de2ed87d0ba3c9b72b7e352fce3562e6258"},
		{"des64", 2056, "sha256:ad121203720f1fdbd3de3d81ba86cf6f4ef64fd8c91f479b29216c170f607afe"},
		{"des128", 0, "ded6d743d41042a3"},
		{"des128", 1, "91191a778d9d5131c48fe832b75760b3"},
		{"des128", 7, "0d35240feed27ecbb1df7b20c65aea01"},
		{"des128", 8, "220f8f70841ed41f2f9f1dec54e68be3"},
		{"des128", 9, "5b413ecebb0150c0ad8d8978705b249e3ebf141e0d5acc44"},
		{"des128", 256, "sha256:725ed86ac98414815ba3a51965206252bca04c003113c6cc8d714d28aa03f49c"},
		{"des128", 2056, "sha256:68de1c88844b5901a9a89008843d6bf5507166d895e77f5bbd62ca43bd9ad298"},
	}
	ciphers := map[string]*Cipher{"des64": MustDefault64(), "des128": MustDefault128()}
	for _, v := range vectors {
		c := ciphers[v.cipher]
		pt := pattern(v.n)
		ct := c.Encrypt(pt)
		got := hex.EncodeToString(ct)
		if strings.HasPrefix(v.want, "sha256:") {
			sum := sha256.Sum256(ct)
			got = "sha256:" + hex.EncodeToString(sum[:])
		}
		if got != v.want {
			t.Errorf("%s, %d bytes: ciphertext %s, want %s", v.cipher, v.n, got, v.want)
		}
		if back, err := c.Decrypt(ct); err != nil || !bytes.Equal(back, pt) {
			t.Errorf("%s, %d bytes: decrypt: %v", v.cipher, v.n, err)
		}
	}
}

// referenceEncrypt and referenceDecrypt are the byte-at-a-time kernels the
// word kernels replaced, kept as the oracle FuzzCipherMatchesReference
// compares them against.
func referenceEncrypt(c *Cipher, plaintext []byte) []byte {
	h := fnv.New32a()
	_, _ = h.Write(plaintext)
	sum := h.Sum32()

	inner := 8 + len(plaintext)
	padded := (inner + BlockSize - 1) / BlockSize * BlockSize
	buf := make([]byte, padded)
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(plaintext)))
	binary.BigEndian.PutUint32(buf[4:8], sum)
	copy(buf[8:], plaintext)

	out := make([]byte, padded)
	var prev [BlockSize]byte
	for off := 0; off < padded; off += BlockSize {
		var x [BlockSize]byte
		for i := 0; i < BlockSize; i++ {
			x[i] = buf[off+i] ^ prev[i]
		}
		referenceEncryptBlock(c, out[off:off+BlockSize], x[:])
		copy(prev[:], out[off:off+BlockSize])
	}
	return out
}

func referenceDecrypt(c *Cipher, ciphertext []byte) ([]byte, error) {
	if len(ciphertext) == 0 || len(ciphertext)%BlockSize != 0 {
		return nil, errLength
	}
	buf := make([]byte, len(ciphertext))
	var prev [BlockSize]byte
	for off := 0; off < len(ciphertext); off += BlockSize {
		var x [BlockSize]byte
		referenceDecryptBlock(c, x[:], ciphertext[off:off+BlockSize])
		for i := 0; i < BlockSize; i++ {
			buf[off+i] = x[i] ^ prev[i]
		}
		copy(prev[:], ciphertext[off:off+BlockSize])
	}
	n := binary.BigEndian.Uint32(buf[0:4])
	if int(n) > len(buf)-8 {
		return nil, ErrIntegrity
	}
	plaintext := buf[8 : 8+n]
	h := fnv.New32a()
	_, _ = h.Write(plaintext)
	if h.Sum32() != binary.BigEndian.Uint32(buf[4:8]) {
		return nil, ErrIntegrity
	}
	return plaintext, nil
}

func referenceEncryptBlock(c *Cipher, dst, src []byte) {
	l := binary.BigEndian.Uint32(src[0:4])
	r := binary.BigEndian.Uint32(src[4:8])
	for i := 0; i < c.rounds; i++ {
		l, r = r, l^feistelF(r, c.roundKey[i])
	}
	binary.BigEndian.PutUint32(dst[0:4], r)
	binary.BigEndian.PutUint32(dst[4:8], l)
}

func referenceDecryptBlock(c *Cipher, dst, src []byte) {
	r := binary.BigEndian.Uint32(src[0:4])
	l := binary.BigEndian.Uint32(src[4:8])
	for i := c.rounds - 1; i >= 0; i-- {
		l, r = r^feistelF(l, c.roundKey[i]), l
	}
	binary.BigEndian.PutUint32(dst[0:4], l)
	binary.BigEndian.PutUint32(dst[4:8], r)
}

// FuzzCipherMatchesReference: for any plaintext the word kernels produce
// the reference's ciphertext, and for any ciphertext — valid, mutated, or
// made by the other cipher — they accept or reject exactly as the
// reference does, with the same error and the same plaintext.
func FuzzCipherMatchesReference(f *testing.F) {
	for _, n := range []int{0, 1, 7, 8, 9, 31, 32, 33, 256, 600} {
		f.Add(pattern(n), uint16(n/2), byte(0x40))
	}
	f.Add([]byte("short"), uint16(3), byte(0))
	ciphers := []*Cipher{MustDefault64(), MustDefault128()}
	f.Fuzz(func(t *testing.T, data []byte, at uint16, flip byte) {
		same := func(c *Cipher, what string, ct []byte) {
			t.Helper()
			want, wantErr := referenceDecrypt(c, ct)
			got, gotErr := c.Decrypt(ct)
			if gotErr != wantErr {
				t.Fatalf("%s %s: error %v, reference %v", c.Name(), what, gotErr, wantErr)
			}
			if wantErr == nil && !bytes.Equal(got, want) {
				t.Fatalf("%s %s: plaintext differs from the reference", c.Name(), what)
			}
		}
		for i, c := range ciphers {
			ct := c.Encrypt(data)
			if !bytes.Equal(ct, referenceEncrypt(c, data)) {
				t.Fatalf("%s: ciphertext differs from the reference for %d bytes", c.Name(), len(data))
			}
			same(c, "own ciphertext", ct)
			same(ciphers[1-i], "foreign ciphertext", ct)
			same(c, "raw input", data)
			mutated := append([]byte(nil), ct...)
			mutated[int(at)%len(mutated)] ^= flip
			same(c, "mutated ciphertext", mutated)
			same(c, "truncated ciphertext", ct[:int(at)%len(ct)])
		}
	})
}

// TestAppendAllocs: into a dst with room, neither direction allocates.
func TestAppendAllocs(t *testing.T) {
	for _, c := range []*Cipher{MustDefault64(), MustDefault128()} {
		pt := pattern(256)
		sealed := make([]byte, 0, 512)
		opened := make([]byte, 0, 512)
		if n := testing.AllocsPerRun(100, func() { sealed = c.AppendEncrypt(sealed[:0], pt) }); n != 0 {
			t.Errorf("%s AppendEncrypt: %v allocs per call, want 0", c.Name(), n)
		}
		n := testing.AllocsPerRun(100, func() {
			var err error
			if opened, err = c.AppendDecrypt(opened[:0], sealed); err != nil {
				t.Fatal(err)
			}
		})
		if n != 0 {
			t.Errorf("%s AppendDecrypt: %v allocs per call, want 0", c.Name(), n)
		}
		if !bytes.Equal(opened, pt) {
			t.Errorf("%s: round trip through reused buffers differs", c.Name())
		}
	}
}

// TestAppendKeepsPrefix: both directions append after what dst holds, and
// a refused ciphertext leaves dst as it was.
func TestAppendKeepsPrefix(t *testing.T) {
	c := MustDefault64()
	pt := pattern(21)
	sealed := c.AppendEncrypt([]byte("head"), pt)
	if string(sealed[:4]) != "head" || !bytes.Equal(sealed[4:], c.Encrypt(pt)) {
		t.Fatal("AppendEncrypt did not append after dst's contents")
	}
	opened, err := c.AppendDecrypt([]byte("head"), sealed[4:])
	if err != nil || string(opened) != "head"+string(pt) {
		t.Fatalf("AppendDecrypt = %q, %v", opened, err)
	}
	sealed[9] ^= 1
	if opened, err = c.AppendDecrypt([]byte("head"), sealed[4:]); err == nil || string(opened) != "head" {
		t.Fatalf("refused ciphertext: dst %q, err %v", opened, err)
	}
}

func BenchmarkAppendEncrypt256(b *testing.B) {
	c, pt, dst := MustDefault64(), pattern(256), make([]byte, 0, 512)
	b.SetBytes(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = c.AppendEncrypt(dst[:0], pt)
	}
}

func BenchmarkAppendDecrypt256(b *testing.B) {
	c, dst := MustDefault64(), make([]byte, 0, 512)
	ct := c.Encrypt(pattern(256))
	b.SetBytes(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst, _ = c.AppendDecrypt(dst[:0], ct)
	}
}
