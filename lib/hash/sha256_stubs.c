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

/* The leaves of a batch: a column's payload [data] and its OCaml int
   array of offsets [off], leaf i being data[off[i] .. off[i+1]), or,
   when [data] is NULL, the OCaml array of [bytes] [arr]. */
struct leaves {
  const unsigned char *data;
  value off, arr;
};

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

/* Rounds 4i..4i+3 of one lane, its state the two lanes [abef] and
   [cdgh], on schedule words m0 = W[4i..4i+3]; while later words are
   still needed, m0 is then replaced by W[4i+16..4i+19], from m0..m3 =
   W[4i..4i+15]. [i] is a literal, so the test folds away. */
#define QUAD(abef, cdgh, m0, m1, m2, m3, i)                                   \
  do {                                                                       \
    __m128i wk = _mm_add_epi32(m0, _mm_load_si128((const __m128i *)&K[4 * (i)])); \
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);                            \
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));   \
    if ((i) < 12)                                                            \
      m0 = _mm_sha256msg2_epu32(                                             \
          _mm_add_epi32(_mm_sha256msg1_epu32(m0, m1), _mm_alignr_epi8(m3, m2, 4)), \
          m3);                                                               \
  } while (0)

/* The 64 rounds, four at a time through [Q(x0, x1, x2, x3, i)], the
   schedule words rotating through the four registers. */
#define ROUNDS(Q)                                                            \
  do {                                                                       \
    Q(0, 1, 2, 3, 0); Q(1, 2, 3, 0, 1); Q(2, 3, 0, 1, 2); Q(3, 0, 1, 2, 3);     \
    Q(0, 1, 2, 3, 4); Q(1, 2, 3, 0, 5); Q(2, 3, 0, 1, 6); Q(3, 0, 1, 2, 7);     \
    Q(0, 1, 2, 3, 8); Q(1, 2, 3, 0, 9); Q(2, 3, 0, 1, 10); Q(3, 0, 1, 2, 11);   \
    Q(0, 1, 2, 3, 12); Q(1, 2, 3, 0, 13); Q(2, 3, 0, 1, 14); Q(3, 0, 1, 2, 15); \
  } while (0)

/* The 8 native-order state words a..h at [st] as the two lanes. */
#define LOAD_STATE(st, abef, cdgh)                                           \
  do {                                                                       \
    __m128i cdab_ = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)(st)), 0xb1); \
    __m128i efgh_ = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)((st) + 16)), 0x1b); \
    abef = _mm_alignr_epi8(cdab_, efgh_, 8);                                 \
    cdgh = _mm_blend_epi16(efgh_, cdab_, 0xf0);                              \
  } while (0)

/* The state at [st] plus the lanes, back in native order at [st]. */
#define ADD_STORE_STATE(st, abef, cdgh)                                      \
  do {                                                                       \
    __m128i abef0_, cdgh0_;                                                  \
    LOAD_STATE(st, abef0_, cdgh0_);                                          \
    __m128i feba_ = _mm_shuffle_epi32(_mm_add_epi32(abef, abef0_), 0x1b);    \
    __m128i dchg_ = _mm_shuffle_epi32(_mm_add_epi32(cdgh, cdgh0_), 0xb1);    \
    _mm_storeu_si128((__m128i *)(st), _mm_blend_epi16(feba_, dchg_, 0xf0));  \
    _mm_storeu_si128((__m128i *)((st) + 16), _mm_alignr_epi8(dchg_, feba_, 8)); \
  } while (0)

#define LOAD_BLOCK(m, block, k)                                              \
  m = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)((block) + 16 * (k))), bswap)

__attribute__((target("sha,ssse3,sse4.1")))
static void compress_ni(unsigned char *st, const unsigned char *block)
{
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i abef, cdgh, m0, m1, m2, m3;
  LOAD_STATE(st, abef, cdgh);
  LOAD_BLOCK(m0, block, 0);
  LOAD_BLOCK(m1, block, 1);
  LOAD_BLOCK(m2, block, 2);
  LOAD_BLOCK(m3, block, 3);
#define Q1(x0, x1, x2, x3, i) QUAD(abef, cdgh, m##x0, m##x1, m##x2, m##x3, i)
  ROUNDS(Q1);
#undef Q1
  ADD_STORE_STATE(st, abef, cdgh);
}

/* Two independent compressions, [ba] into [sa] and [bb] into [sb],
   their rounds interleaved so that one runs in the other's latency:
   on the 2-vCPU Xeon VM a level of 64-byte nodes costs 39 ns a node
   this way against 45 one at a time. The states must not overlap. */
__attribute__((target("sha,ssse3,sse4.1")))
static void compress2_ni(unsigned char *sa, const unsigned char *ba, unsigned char *sb,
                         const unsigned char *bb)
{
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i abef_a, cdgh_a, a0, a1, a2, a3, abef_b, cdgh_b, b0, b1, b2, b3;
  LOAD_STATE(sa, abef_a, cdgh_a);
  LOAD_STATE(sb, abef_b, cdgh_b);
  LOAD_BLOCK(a0, ba, 0);
  LOAD_BLOCK(b0, bb, 0);
  LOAD_BLOCK(a1, ba, 1);
  LOAD_BLOCK(b1, bb, 1);
  LOAD_BLOCK(a2, ba, 2);
  LOAD_BLOCK(b2, bb, 2);
  LOAD_BLOCK(a3, ba, 3);
  LOAD_BLOCK(b3, bb, 3);
#define Q2(x0, x1, x2, x3, i)                                                \
  do {                                                                       \
    QUAD(abef_a, cdgh_a, a##x0, a##x1, a##x2, a##x3, i);                     \
    QUAD(abef_b, cdgh_b, b##x0, b##x1, b##x2, b##x3, i);                     \
  } while (0)
  ROUNDS(Q2);
#undef Q2
  ADD_STORE_STATE(sa, abef_a, cdgh_a);
  ADD_STORE_STATE(sb, abef_b, cdgh_b);
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

/* Whether the [len] bytes at [x] and [y] are equal, 16 bytes a
   compare (the last one overlapping) from 16 bytes on: the short
   leaves and the 64-byte node inputs, with no call. */
static inline int same_bytes(const unsigned char *x, const unsigned char *y, size_t len)
{
  if (len >= 16) {
    __m128i d = _mm_setzero_si128();
    for (size_t i = 0; i + 16 <= len; i += 16)
      d = _mm_or_si128(d, _mm_xor_si128(_mm_loadu_si128((const __m128i *)(x + i)),
                                        _mm_loadu_si128((const __m128i *)(y + i))));
    d = _mm_or_si128(d, _mm_xor_si128(_mm_loadu_si128((const __m128i *)(x + len - 16)),
                                      _mm_loadu_si128((const __m128i *)(y + len - 16))));
    return _mm_movemask_epi8(_mm_cmpeq_epi8(d, _mm_setzero_si128())) == 0xffff;
  }
  if (len >= 8) {
    uint64_t a, b, c, e;
    memcpy(&a, x, 8);
    memcpy(&b, y, 8);
    memcpy(&c, x + len - 8, 8);
    memcpy(&e, y + len - 8, 8);
    return ((a ^ b) | (c ^ e)) == 0;
  }
  for (size_t i = 0; i < len; i++)
    if (x[i] != y[i]) return 0;
  return 1;
}

/* [n] bytes, at most 64, from [src] to [dst], in 16-, 8- or 4-byte
   moves (the last one overlapping), with no call: the pieces of a
   leaf's first and last blocks. */
static inline void copy_small(unsigned char *dst, const unsigned char *src, size_t n)
{
  if (n >= 16) {
    for (size_t i = 0; i + 16 < n; i += 16)
      _mm_storeu_si128((__m128i *)(dst + i), _mm_loadu_si128((const __m128i *)(src + i)));
    _mm_storeu_si128((__m128i *)(dst + n - 16), _mm_loadu_si128((const __m128i *)(src + n - 16)));
  }
  else if (n >= 8) {
    uint64_t a, b;
    memcpy(&a, src, 8);
    memcpy(&b, src + n - 8, 8);
    memcpy(dst, &a, 8);
    memcpy(dst + n - 8, &b, 8);
  }
  else if (n >= 4) {
    uint32_t a, b;
    memcpy(&a, src, 4);
    memcpy(&b, src + n - 4, 4);
    memcpy(dst, &a, 4);
    memcpy(dst + n - 4, &b, 4);
  }
  else
    for (size_t i = 0; i < n; i++) dst[i] = src[i];
}

/* ---- the batch loops ----

   Both apply the equal-neighbour rule to a window [lo, hi) of slots:
   slot lo is hashed, and a later slot copies the digest of the slot
   before it when its input holds the same bytes. The window is cut
   into runs, a hashed head and the copies after it, and the runs are
   hashed two at a time, one per lane of [compress2_ni]; a run's
   copies are written once its head is. Which slots are hashed, and
   every byte written, are those of a slot-by-slot loop. */

/* Slot dst+i of [buf] gets the node hash of the 64 bytes at slot
   src+2i, compressed from [from] and then, if [pad], through [pad64];
   it copies slot dst+i-1 when those bytes equal the 64 before them.
   Returns the slots hashed. */
__attribute__((target("sha,ssse3,sse4.1")))
static long level_ni(const unsigned char *from, int pad, unsigned char *buf,
                     long src, long dst, long lo, long hi)
{
#define IN(j) (buf + 32 * (src + 2 * (j)))
#define OUT(j) (buf + 32 * (dst + (j)))
  long hashed = 0, i = lo, run[2][2];
  while (i < hi) {
    int lanes = 0;
    for (; lanes < 2 && i < hi; lanes++) {
      long end = i + 1;
      while (end < hi && same_bytes(IN(end), IN(end - 1), 64)) end++;
      run[lanes][0] = i;
      run[lanes][1] = end;
      i = end;
    }
    unsigned char st[2][32];
    memcpy(st[0], from, 32);
    if (lanes == 2) {
      memcpy(st[1], from, 32);
      compress2_ni(st[0], IN(run[0][0]), st[1], IN(run[1][0]));
      if (pad) compress2_ni(st[0], pad64, st[1], pad64);
    } else {
      compress_ni(st[0], IN(run[0][0]));
      if (pad) compress_ni(st[0], pad64);
    }
    for (int l = 0; l < lanes; l++) {
      put_digest(OUT(run[l][0]), st[l]);
      for (long j = run[l][0] + 1; j < run[l][1]; j++) memcpy(OUT(j), OUT(run[l][0]), 32);
    }
    hashed += lanes;
  }
  return hashed;
#undef IN
#undef OUT
}

static inline const unsigned char *leaf_at(const struct leaves *s, long i, size_t *len)
{
  if (s->data != NULL) {
    long pos = Long_val(Field(s->off, i));
    *len = (size_t)(Long_val(Field(s->off, i + 1)) - pos);
    return s->data + pos;
  }
  value leaf = Field(s->arr, i);
  *len = caml_string_length(leaf);
  return Bytes_val(leaf);
}

/* One lane of the leaf loop: the run [head, end) it fills, and the
   head's message prefix ‖ msg with its padding, [blocks] blocks long,
   of which [next] is the next to compress. */
struct leaf_lane {
  unsigned char st[32];
  long head, end, next, blocks;
  const unsigned char *msg;
  size_t len;
  unsigned char blk[64];
};

/* The next block of the lane's padded message: in place when it lies
   wholly in [msg], else assembled in [blk] from the prefix, the
   message, the 0x80 byte, zeros, and in the last block the 64-bit bit
   length. */
static const unsigned char *leaf_block(struct leaf_lane *l, const unsigned char *prefix,
                                       size_t plen)
{
  size_t total = plen + l->len, at = 64 * (size_t)l->next, k = 0;
  l->next++;
  if (at >= plen && at + 64 <= total) return l->msg + (at - plen);
  unsigned char *b = l->blk;
  memset(b, 0, 64);
  if (at < plen) {
    k = plen - at < 64 ? plen - at : 64;
    copy_small(b, prefix + at, k);
  }
  if (k < 64 && at + k < total) {
    size_t n = total - (at + k) < 64 - k ? total - (at + k) : 64 - k;
    copy_small(b + k, l->msg + (at + k - plen), n);
    k += n;
  }
  if (at + k == total && k < 64) b[k] = 0x80;
  if (l->next == l->blocks) {
    uint64_t bits = __builtin_bswap64((uint64_t)total * 8);
    memcpy(b + 56, &bits, 8);
  }
  return b;
}

/* Slot i of [dst] gets SHA-256(prefix ‖ leaf i), from the IV [iv]; it
   copies slot i-1 when leaf i holds the same bytes as leaf i-1.
   Returns the slots hashed and adds their blocks to [*blocks]. A lane
   that finishes its run takes the next one while the other lane is
   still compressing, so leaves of unequal length pair up too. */
__attribute__((target("sha,ssse3,sse4.1")))
static long leaves_ni(const unsigned char *iv, const unsigned char *prefix, size_t plen,
                      const struct leaves *s, unsigned char *dst, long lo, long hi,
                      long *blocks)
{
  struct leaf_lane lane[2];
  long hashed = 0, i = lo;
  int live[2];
  /* Lane l takes the run at slot i, if any is left. */
#define START(l)                                                             \
  do {                                                                       \
    struct leaf_lane *ln = &lane[l];                                         \
    live[l] = i < hi;                                                        \
    if (live[l]) {                                                           \
      ln->head = i;                                                          \
      ln->msg = leaf_at(s, i, &ln->len);                                     \
      for (ln->end = i + 1; ln->end < hi; ln->end++) {                       \
        size_t len_;                                                         \
        const unsigned char *next_ = leaf_at(s, ln->end, &len_);             \
        if (len_ != ln->len || !same_bytes(next_, ln->msg, len_)) break;     \
      }                                                                      \
      i = ln->end;                                                           \
      ln->next = 0;                                                          \
      ln->blocks = (long)((plen + ln->len + 9 + 63) / 64);                   \
      *blocks += ln->blocks;                                                 \
      hashed++;                                                              \
      memcpy(ln->st, iv, 32);                                                \
    }                                                                        \
  } while (0)
  /* Lane l's run, written: the head's digest and its copies. */
#define FINISH(l)                                                            \
  do {                                                                       \
    struct leaf_lane *ln = &lane[l];                                         \
    put_digest(dst + 32 * ln->head, ln->st);                                 \
    for (long j = ln->head + 1; j < ln->end; j++)                            \
      memcpy(dst + 32 * j, dst + 32 * ln->head, 32);                         \
  } while (0)
  START(0);
  START(1);
  while (live[0] && live[1]) {
    const unsigned char *b0 = leaf_block(&lane[0], prefix, plen);
    const unsigned char *b1 = leaf_block(&lane[1], prefix, plen);
    compress2_ni(lane[0].st, b0, lane[1].st, b1);
    if (lane[0].next == lane[0].blocks) {
      FINISH(0);
      START(0);
    }
    if (lane[1].next == lane[1].blocks) {
      FINISH(1);
      START(1);
    }
  }
  for (int l = 0; l < 2; l++)
    if (live[l]) {
      while (lane[l].next < lane[l].blocks)
        compress_ni(lane[l].st, leaf_block(&lane[l], prefix, plen));
      FINISH(l);
    }
  return hashed;
#undef START
#undef FINISH
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
                      const struct leaves *s, unsigned char *dst, long lo, long hi,
                      long *blocks)
{
  (void)iv; (void)prefix; (void)plen; (void)s; (void)dst; (void)lo; (void)hi; (void)blocks;
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
  struct leaves s = { Bytes_val(data), off, Val_unit };
  long blocks = 0;
  long hashed = leaves_ni(Bytes_val(iv), Bytes_val(prefix), caml_string_length(prefix), &s,
                          Bytes_val(dst), Long_val(lo), Long_val(hi), &blocks);
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
  struct leaves s = { NULL, Val_unit, leaves };
  long blocks = 0;
  long hashed = leaves_ni(Bytes_val(iv), Bytes_val(prefix), caml_string_length(prefix), &s,
                          Bytes_val(dst), Long_val(lo), Long_val(hi), &blocks);
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
