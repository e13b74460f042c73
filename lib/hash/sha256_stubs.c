/* SHA-256 compressions on the x86-64 SHA extensions (SHA-NI): one
   block, and the two Merkle batch loops (a level's node slots, a run
   of leaf slots).

   [Sha256] calls these stubs only when [zkflow_sha256_ni_available]
   said yes at module init; it bounds every window itself, so the
   stubs do no checking, never raise and allocate nothing. The chaining
   state is the 8 words a..h in native (little-endian) order, the block
   64 message bytes, big-endian words, at any alignment. The rounds
   are the published SHA-NI sequence: the state is carried as the two
   lanes ABEF and CDGH, each sha256rnds2 does two rounds, and
   sha256msg1/msg2 extend the schedule four words at a time.

   The instruction set is enabled per function with the target
   attribute, so the library needs no global -msha flag and runs on
   any x86-64. Other architectures and compilers get bodies that
   report no extension and abort; OCaml never calls them there. */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

#include <cpuid.h>
#include <immintrin.h>

/* CPUID leaf 1 ECX bits 9 (SSSE3) and 19 (SSE4.1), leaf 7 EBX bit 29
   (SHA). */
static int has_sha_ni(void)
{
  unsigned int a, b, c, d;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return 0;
  if (!(c & (1u << 9)) || !(c & (1u << 19))) return 0;
  if (__get_cpuid_max(0, NULL) < 7) return 0;
  __cpuid_count(7, 0, a, b, c, d);
  return (b >> 29) & 1;
}

static const uint32_t K[64] __attribute__((aligned(16))) = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
  0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
  0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
  0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
  0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
  0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

/* Rounds 4i..4i+3 on schedule words m0 = W[4i..4i+3]; while later
   words are still needed, m0 is then replaced by W[4i+16..4i+19],
   from m0..m3 = W[4i..4i+15]. */
#define QUAD(m0, m1, m2, m3, i)                                              \
  do {                                                                       \
    __m128i wk = _mm_add_epi32(m0, _mm_load_si128((const __m128i *)&K[4 * (i)])); \
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);                            \
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));   \
    if ((i) < 12)                                                            \
      m0 = _mm_sha256msg2_epu32(                                             \
          _mm_add_epi32(_mm_sha256msg1_epu32(m0, m1), _mm_alignr_epi8(m3, m2, 4)), \
          m3);                                                               \
  } while (0)

__attribute__((target("sha,ssse3,sse4.1")))
static void compress_ni(unsigned char *st, const unsigned char *block)
{
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i dcba = _mm_loadu_si128((const __m128i *)st);
  __m128i hgfe = _mm_loadu_si128((const __m128i *)(st + 16));
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
  const __m128i abef0 = abef, cdgh0 = cdgh;
  __m128i m0 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)block), bswap);
  __m128i m1 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(block + 16)), bswap);
  __m128i m2 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(block + 32)), bswap);
  __m128i m3 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(block + 48)), bswap);
  for (int i = 0; i < 16; i += 4) {
    QUAD(m0, m1, m2, m3, i);
    QUAD(m1, m2, m3, m0, i + 1);
    QUAD(m2, m3, m0, m1, i + 2);
    QUAD(m3, m0, m1, m2, i + 3);
  }
  abef = _mm_add_epi32(abef, abef0);
  cdgh = _mm_add_epi32(cdgh, cdgh0);
  __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128((__m128i *)st, _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128((__m128i *)(st + 16), _mm_alignr_epi8(dchg, feba, 8));
}

/* The 8 native-order state words as the big-endian digest. */
__attribute__((target("ssse3")))
static void put_digest(unsigned char *out, const unsigned char *st)
{
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  _mm_storeu_si128((__m128i *)out,
                   _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)st), bswap));
  _mm_storeu_si128((__m128i *)(out + 16),
                   _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(st + 16)), bswap));
}

/* The second block of every 64-byte message: 0x80, zeros, and the bit
   length 512 big-endian. */
static const unsigned char pad64[64] = { [0] = 0x80, [62] = 0x02 };

/* Slot dst+i of [buf] gets the node hash of the 64 bytes at slot
   src+2i, compressed from [from] and then, if [pad], through [pad64];
   it copies slot dst+i-1 when those bytes equal the 64 before them.
   Returns the slots hashed. */
__attribute__((target("sha,ssse3,sse4.1")))
static long level_ni(const unsigned char *from, int pad, unsigned char *buf,
                     long src, long dst, long lo, long hi)
{
  long hashed = 0;
  for (long i = lo; i < hi; i++) {
    const unsigned char *in = buf + 32 * (src + 2 * i);
    unsigned char *out = buf + 32 * (dst + i);
    if (i > lo && memcmp(in, in - 64, 64) == 0) {
      memcpy(out, out - 32, 32);
      continue;
    }
    unsigned char st[32];
    memcpy(st, from, 32);
    compress_ni(st, in);
    if (pad) compress_ni(st, pad64);
    put_digest(out, st);
    hashed++;
  }
  return hashed;
}

/* Absorb [len] bytes of [src] into [st]: whole blocks straight from
   [src], the rest buffered in [blk] (holding [*fill] bytes). */
__attribute__((target("sha,ssse3,sse4.1")))
static void absorb(unsigned char *st, unsigned char *blk, size_t *fill, long *blocks,
                   const unsigned char *src, size_t len)
{
  if (*fill > 0) {
    size_t take = 64 - *fill < len ? 64 - *fill : len;
    memcpy(blk + *fill, src, take);
    *fill += take;
    src += take;
    len -= take;
    if (*fill < 64) return;
    compress_ni(st, blk);
    (*blocks)++;
    *fill = 0;
  }
  for (; len >= 64; src += 64, len -= 64) {
    compress_ni(st, src);
    (*blocks)++;
  }
  memcpy(blk, src, len);
  *fill = len;
}

/* [out] gets SHA-256(prefix ‖ msg) from the IV [iv]; returns the
   blocks compressed. */
__attribute__((target("sha,ssse3,sse4.1")))
static long leaf_ni(const unsigned char *iv, const unsigned char *prefix, size_t plen,
                    const unsigned char *msg, size_t len, unsigned char *out)
{
  unsigned char st[32], blk[128];
  size_t fill = 0;
  long blocks = 0;
  memcpy(st, iv, 32);
  absorb(st, blk, &fill, &blocks, prefix, plen);
  absorb(st, blk, &fill, &blocks, msg, len);
  /* Padding: 0x80, zeros to 56 mod 64, the 64-bit bit length; more
     than 55 bytes buffered spill it into a second block. */
  size_t end = fill < 56 ? 64 : 128;
  uint64_t bits = __builtin_bswap64((uint64_t)(plen + len) * 8);
  memset(blk + fill, 0, end - 8 - fill);
  blk[fill] = 0x80;
  memcpy(blk + end - 8, &bits, 8);
  compress_ni(st, blk);
  if (end == 128) compress_ni(st, blk + 64);
  put_digest(out, st);
  return blocks + (long)(end / 64);
}

/* Slot i of [dst] gets SHA-256(prefix ‖ leaf i), from the IV [iv],
   leaf i being data[off[i] .. off[i+1]) with [off] an OCaml int
   array; it copies slot i-1 when leaf i holds the same bytes as leaf
   i-1. Returns the slots hashed and adds their blocks to [*blocks]. */
__attribute__((target("sha,ssse3,sse4.1")))
static long leaves_ni(const unsigned char *iv, const unsigned char *prefix, size_t plen,
                      const unsigned char *data, value off, unsigned char *dst, long lo,
                      long hi, long *blocks)
{
  long hashed = 0;
  for (long i = lo; i < hi; i++) {
    long pos = Long_val(Field(off, i));
    size_t len = (size_t)(Long_val(Field(off, i + 1)) - pos);
    unsigned char *out = dst + 32 * i;
    if (i > lo) {
      long prev = Long_val(Field(off, i - 1));
      if ((size_t)(pos - prev) == len && memcmp(data + prev, data + pos, len) == 0) {
        memcpy(out, out - 32, 32);
        continue;
      }
    }
    *blocks += leaf_ni(iv, prefix, plen, data + pos, len, out);
    hashed++;
  }
  return hashed;
}

/* [leaves_ni] over an OCaml array of [bytes], leaf i being element i:
   the opened leaves of a seal column, hashed where they lie. */
__attribute__((target("sha,ssse3,sse4.1")))
static long leaves_array_ni(const unsigned char *iv, const unsigned char *prefix, size_t plen,
                            value leaves, unsigned char *dst, long lo, long hi, long *blocks)
{
  long hashed = 0;
  for (long i = lo; i < hi; i++) {
    value leaf = Field(leaves, i);
    size_t len = caml_string_length(leaf);
    unsigned char *out = dst + 32 * i;
    if (i > lo) {
      value prev = Field(leaves, i - 1);
      if (caml_string_length(prev) == len && memcmp(Bytes_val(prev), Bytes_val(leaf), len) == 0) {
        memcpy(out, out - 32, 32);
        continue;
      }
    }
    *blocks += leaf_ni(iv, prefix, plen, Bytes_val(leaf), len, out);
    hashed++;
  }
  return hashed;
}

#else

static int has_sha_ni(void) { return 0; }

static void compress_ni(unsigned char *st, const unsigned char *block)
{
  (void)st;
  (void)block;
  abort();
}

static long level_ni(const unsigned char *from, int pad, unsigned char *buf,
                     long src, long dst, long lo, long hi)
{
  (void)from; (void)pad; (void)buf; (void)src; (void)dst; (void)lo; (void)hi;
  abort();
}

static long leaves_ni(const unsigned char *iv, const unsigned char *prefix, size_t plen,
                      const unsigned char *data, value off, unsigned char *dst, long lo,
                      long hi, long *blocks)
{
  (void)iv; (void)prefix; (void)plen; (void)data; (void)off; (void)dst; (void)lo; (void)hi;
  (void)blocks;
  abort();
}

static long leaves_array_ni(const unsigned char *iv, const unsigned char *prefix, size_t plen,
                            value leaves, unsigned char *dst, long lo, long hi, long *blocks)
{
  (void)iv; (void)prefix; (void)plen; (void)leaves; (void)dst; (void)lo; (void)hi;
  (void)blocks;
  abort();
}

#endif

CAMLprim value zkflow_sha256_ni_available(value unit)
{
  (void)unit;
  return Val_bool(has_sha_ni());
}

/* [state] is 32 bytes, [src.[pos .. pos+63]] the block; the caller
   has bounded both. Allocates nothing and never raises. */
CAMLprim value zkflow_sha256_ni_compress(value state, value src, value pos)
{
  compress_ni(Bytes_val(state), Bytes_val(src) + Long_val(pos));
  return Val_unit;
}

/* [from] is the rule's 32-byte chaining state, [pad] whether the
   padding block follows; the caller has bounded the window and made
   the output slots disjoint from the input slots. */
CAMLprim value zkflow_sha256_ni_level(value from, value pad, value buf, value src, value dst,
                                      value lo, value hi)
{
  return Val_long(level_ni(Bytes_val(from), Bool_val(pad), Bytes_val(buf), Long_val(src),
                           Long_val(dst), Long_val(lo), Long_val(hi)));
}

CAMLprim value zkflow_sha256_ni_level_byte(value *argv, int argn)
{
  (void)argn;
  return zkflow_sha256_ni_level(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5], argv[6]);
}

/* [iv] is the 32-byte initial state, [data] the column's payload
   bytes and [off] its offsets; the caller has bounded the window and
   its offsets and kept [dst] apart from every input. The blocks
   compressed go to the first 8 bytes of [counts]. */
CAMLprim value zkflow_sha256_ni_leaves(value iv, value prefix, value data, value off, value dst,
                                       value lo, value hi, value counts)
{
  long blocks = 0;
  long hashed = leaves_ni(Bytes_val(iv), Bytes_val(prefix), caml_string_length(prefix),
                          Bytes_val(data), off, Bytes_val(dst), Long_val(lo), Long_val(hi),
                          &blocks);
  int64_t n = blocks;
  memcpy(Bytes_val(counts), &n, 8);
  return Val_long(hashed);
}

CAMLprim value zkflow_sha256_ni_leaves_byte(value *argv, int argn)
{
  (void)argn;
  return zkflow_sha256_ni_leaves(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5], argv[6],
                                 argv[7]);
}

/* [leaves] is an OCaml array of [bytes]; the caller has bounded the
   window and kept [dst] apart from every input. The blocks compressed
   go to the first 8 bytes of [counts]. */
CAMLprim value zkflow_sha256_ni_leaves_array(value iv, value prefix, value leaves, value dst,
                                             value lo, value hi, value counts)
{
  long blocks = 0;
  long hashed = leaves_array_ni(Bytes_val(iv), Bytes_val(prefix), caml_string_length(prefix),
                                leaves, Bytes_val(dst), Long_val(lo), Long_val(hi), &blocks);
  int64_t n = blocks;
  memcpy(Bytes_val(counts), &n, 8);
  return Val_long(hashed);
}

CAMLprim value zkflow_sha256_ni_leaves_array_byte(value *argv, int argn)
{
  (void)argn;
  return zkflow_sha256_ni_leaves_array(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                                       argv[6]);
}
