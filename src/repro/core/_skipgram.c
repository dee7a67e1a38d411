/* Skip-gram with hierarchical softmax (Mikolov et al., NIPS'13): the
 * update of word2vec.c and of Spark ML's Word2Vec, with Spark's constants,
 * run on one thread so the vectors are a function of the corpus and the
 * seed alone.
 *
 * repro.core.embed compiles this file with `cc -O3 -ffp-contract=off
 * -shared -fPIC` and calls it through ctypes. No -ffast-math and no -march:
 * every float operation is one IEEE single-precision operation in source
 * order (no fused multiply-add, no reassociation), so the vectors do not
 * depend on the CPU. The dot product keeps LANES partial sums, a
 * fixed order that the compiler can vectorize as written.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define EXP_TABLE_SIZE 1000
#define MAX_EXP 6
#define MAX_CODE_LENGTH 40
#define MAX_SENTENCE_LENGTH 1000
#define LANES 8

/* Huffman tree over n words whose counts are sorted descending
 * (word2vec.c's CreateBinaryTree). Word w's path from the root has
 * codelen[w] steps; step d is the bit code[w * MAX_CODE_LENGTH + d], scored
 * against inner node point[w * MAX_CODE_LENGTH + d] (a row of syn1).
 * Returns 0; -1 when out of memory; -2 when a path is longer than
 * MAX_CODE_LENGTH. */
int sg_huffman(int32_t n, const int64_t *counts, int8_t *code, int32_t *point,
               int32_t *codelen)
{
    size_t size = 2 * (size_t)n + 1;
    int64_t *count = malloc(size * sizeof(int64_t));
    int64_t *parent = malloc(size * sizeof(int64_t));
    int8_t *binary = calloc(size, 1);
    int rc = 0;
    if (!count || !parent || !binary) {
        rc = -1;
        goto done;
    }
    for (int64_t a = 0; a < 2 * (int64_t)n; a++)
        count[a] = a < n ? counts[a] : (int64_t)1e15;
    /* leaves are taken from pos1 downwards, merged nodes from pos2 upwards */
    int64_t pos1 = n - 1, pos2 = n;
    for (int64_t a = 0; a < n - 1; a++) {
        int64_t min[2];
        for (int k = 0; k < 2; k++)
            min[k] = (pos1 >= 0 && count[pos1] < count[pos2]) ? pos1-- : pos2++;
        count[n + a] = count[min[0]] + count[min[1]];
        parent[min[0]] = parent[min[1]] = n + a;
        binary[min[1]] = 1;
    }
    for (int64_t a = 0; a < n; a++) {
        int64_t path[MAX_CODE_LENGTH]; /* from the leaf up to a child of the root */
        int len = 0;
        for (int64_t b = a; b != 2 * (int64_t)n - 2; b = parent[b]) {
            if (len == MAX_CODE_LENGTH) {
                rc = -2;
                goto done;
            }
            path[len++] = b;
        }
        int8_t *c = code + a * MAX_CODE_LENGTH;
        int32_t *p = point + a * MAX_CODE_LENGTH;
        codelen[a] = len;
        for (int d = 0; d < len; d++) {
            c[d] = binary[path[len - 1 - d]];
            p[d] = (int32_t)((d ? path[len - d] : 2 * (int64_t)n - 2) - n);
        }
    }
done:
    free(count);
    free(parent);
    free(binary);
    return rc;
}

static uint64_t splitmix64(uint64_t *state)
{
    uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

static float dot(const float *x, const float *y, int32_t n)
{
    float lane[LANES] = {0};
    int32_t i = 0;
    for (; i + LANES <= n; i += LANES)
        for (int j = 0; j < LANES; j++)
            lane[j] += x[i + j] * y[i + j];
    for (int j = 0; i < n; i++, j++)
        lane[j] += x[i] * y[i];
    return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
           ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

/* Train on the sentences tokens[offsets[s] : offsets[s + 1]] (word indices
 * into the Huffman tree; sentences longer than MAX_SENTENCE_LENGTH are cut
 * into pieces), max_iter passes over them. syn0 (words x dim) is
 * initialised here to (u - 0.5) / dim, u uniform in [0, 1) on 24 bits;
 * syn1 (words x dim) must be zero. One splitmix64 stream from seed draws
 * the initial vectors, then each position's window shrink.
 *
 * As in Spark on one partition: the rate decays linearly from lr with the
 * words seen, updated when more than 10000 words have passed since the
 * last update and floored at lr * 1e-4; each pass starts again at lr.
 * Returns 0, or -1 when out of memory. */
int sg_train(const int32_t *tokens, const int64_t *offsets, int64_t n_sentences,
             const int8_t *code, const int32_t *point, const int32_t *codelen,
             int32_t n_words, int32_t dim, int32_t window, int32_t max_iter,
             double lr, uint64_t seed, float *syn0, float *syn1)
{
    float table[EXP_TABLE_SIZE];
    for (int i = 0; i < EXP_TABLE_SIZE; i++) {
        double e = exp((2.0 * i / EXP_TABLE_SIZE - 1.0) * MAX_EXP);
        table[i] = (float)(e / (e + 1.0));
    }
    float *neu1e = malloc((size_t)dim * sizeof(float));
    if (!neu1e)
        return -1;
    uint64_t rng = seed;
    for (int64_t i = 0; i < (int64_t)n_words * dim; i++)
        syn0[i] = ((float)(splitmix64(&rng) >> 40) / 16777216.0f - 0.5f) / (float)dim;

    int64_t train_words = offsets[n_sentences] - offsets[0];
    double total = (double)((int64_t)max_iter * train_words + 1);
    for (int32_t k = 0; k < max_iter; k++) {
        double alpha = lr;
        int64_t words = 0, last_words = 0;
        for (int64_t s = 0; s < n_sentences; s++) {
            for (int64_t start = offsets[s]; start < offsets[s + 1]; start += MAX_SENTENCE_LENGTH) {
                const int32_t *sent = tokens + start;
                int64_t len = offsets[s + 1] - start;
                if (len > MAX_SENTENCE_LENGTH)
                    len = MAX_SENTENCE_LENGTH;
                if (words - last_words > 10000) {
                    last_words = words;
                    alpha = lr * (1.0 - ((double)words + (double)(k * train_words)) / total);
                    if (alpha < lr * 0.0001)
                        alpha = lr * 0.0001;
                }
                words += len;
                for (int64_t pos = 0; pos < len; pos++) {
                    const int32_t word = sent[pos];
                    const int8_t *c = code + (int64_t)word * MAX_CODE_LENGTH;
                    const int32_t *p = point + (int64_t)word * MAX_CODE_LENGTH;
                    int32_t b = (int32_t)(splitmix64(&rng) % (uint64_t)window);
                    for (int32_t a = b; a < 2 * window + 1 - b; a++) {
                        int64_t ctx = pos - window + a;
                        if (a == window || ctx < 0 || ctx >= len)
                            continue;
                        float *l1 = syn0 + (int64_t)sent[ctx] * dim;
                        memset(neu1e, 0, (size_t)dim * sizeof(float));
                        for (int32_t d = 0; d < codelen[word]; d++) {
                            float *l2 = syn1 + (int64_t)p[d] * dim;
                            float f = dot(l1, l2, dim);
                            if (f <= -MAX_EXP || f >= MAX_EXP)
                                continue;
                            f = table[(int)((f + MAX_EXP) * (EXP_TABLE_SIZE / MAX_EXP / 2.0))];
                            float g = (float)(((float)(1 - c[d]) - f) * alpha);
                            for (int32_t i = 0; i < dim; i++)
                                neu1e[i] += g * l2[i];
                            for (int32_t i = 0; i < dim; i++)
                                l2[i] += g * l1[i];
                        }
                        for (int32_t i = 0; i < dim; i++)
                            l1[i] += neu1e[i];
                    }
                }
            }
        }
    }
    free(neu1e);
    return 0;
}
