/* Skip-gram with hierarchical softmax (Mikolov et al., NIPS'13): the
 * update of word2vec.c and of Spark ML's Word2Vec, with Spark's constants,
 * trained on SHARDS threads in bulk-synchronous rounds, so the vectors are
 * a function of the corpus and the seed alone, on any number of cores.
 *
 * Shard s takes the contiguous sentences [n * s / SHARDS,
 * n * (s + 1) / SHARDS) and trains them on its own thread, on its own copy
 * of syn0 and syn1 and with its own splitmix64 stream. Training goes in
 * rounds. In each, every shard trains its next chunk of whole sentences,
 * at least ROUND_WORDS words, or as many words as the vocabulary has when
 * that is fewer, unless its sentences run out; then, at a barrier, every
 * row that any shard changed becomes global + sum_s (copy_s - global),
 * summed in shard order, and the merged row is copied back into every
 * shard's copy. The chunks and each round's learning rate are fixed before
 * the threads start. SHARDS is a constant, never the core count, and no
 * result depends on which thread runs first.
 *
 * repro.core.embed compiles this file with `cc -O3 -ffp-contract=off
 * -pthread -shared -fPIC` and calls it through ctypes. No -ffast-math and
 * no -march: every float operation is one IEEE single-precision operation
 * in source order (no fused multiply-add, no reassociation), so the
 * vectors do not depend on the CPU. The dot product keeps LANES partial
 * sums, a fixed order that the compiler can vectorize as written.
 */
#include <math.h>
#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define EXP_TABLE_SIZE 1000
#define MAX_EXP 6
#define MAX_CODE_LENGTH 40
#define MAX_SENTENCE_LENGTH 1000
#define LANES 8
#define SHARDS 4
#define ROUND_WORDS 256

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

/* One matrix (syn0 or syn1) as one shard sees it: its copy, and the rows it
 * changed in the current round (mark[row] is the last round that row was
 * listed in). */
typedef struct {
    float *copy;
    int64_t *mark;
    int32_t *rows;
    int64_t n_rows;
} Side;

typedef struct Trainer Trainer;

typedef struct {
    Trainer *t;
    int id;
    uint64_t rng;
    float *neu1e;
    Side side[2]; /* syn0, syn1 */
} Shard;

struct Trainer {
    const int32_t *tokens;
    const int64_t *piece;  /* piece p is tokens[piece[p] : piece_end[p]] */
    const int64_t *piece_end;
    const int64_t *cut;    /* shard s trains pieces cut[s][r] .. cut[s][r + 1] in round r */
    const double *alpha;   /* the rate of round r of pass k, at k * rounds + r */
    int64_t rounds;        /* per pass */
    int32_t max_iter;
    const int8_t *code;
    const int32_t *point;
    const int32_t *codelen;
    int32_t dim, window;
    float table[EXP_TABLE_SIZE];
    float *global[2];      /* syn0, syn1 */
    int64_t *merged[2];    /* the last round a row was merged in */
    pthread_barrier_t barrier;
    pthread_mutex_t gate;  /* held until every thread has started */
    int aborted;           /* set under gate when one could not start */
    Shard shard[SHARDS];
};

static void touch(Side *side, int32_t row, int64_t round)
{
    if (side->mark[row] != round) {
        side->mark[row] = round;
        side->rows[side->n_rows++] = row;
    }
}

/* word2vec.c's skip-gram update over one sentence piece, on the shard's
 * copies; window shrinks come from the shard's stream. */
static void train_piece(Shard *sh, const int32_t *sent, int64_t len, double alpha, int64_t round)
{
    const Trainer *t = sh->t;
    const int32_t dim = t->dim, window = t->window;
    float *neu1e = sh->neu1e;
    for (int64_t pos = 0; pos < len; pos++) {
        const int32_t word = sent[pos];
        const int8_t *c = t->code + (int64_t)word * MAX_CODE_LENGTH;
        const int32_t *p = t->point + (int64_t)word * MAX_CODE_LENGTH;
        int32_t b = (int32_t)(splitmix64(&sh->rng) % (uint64_t)window);
        for (int32_t a = b; a < 2 * window + 1 - b; a++) {
            int64_t ctx = pos - window + a;
            if (a == window || ctx < 0 || ctx >= len)
                continue;
            float *l1 = sh->side[0].copy + (int64_t)sent[ctx] * dim;
            memset(neu1e, 0, (size_t)dim * sizeof(float));
            for (int32_t d = 0; d < t->codelen[word]; d++) {
                float *l2 = sh->side[1].copy + (int64_t)p[d] * dim;
                float f = dot(l1, l2, dim);
                if (f <= -MAX_EXP || f >= MAX_EXP)
                    continue;
                f = t->table[(int)((f + MAX_EXP) * (EXP_TABLE_SIZE / MAX_EXP / 2.0))];
                float g = (float)(((float)(1 - c[d]) - f) * alpha);
                for (int32_t i = 0; i < dim; i++)
                    neu1e[i] += g * l2[i];
                for (int32_t i = 0; i < dim; i++)
                    l2[i] += g * l1[i];
                touch(&sh->side[1], p[d], round);
            }
            for (int32_t i = 0; i < dim; i++)
                l1[i] += neu1e[i];
            touch(&sh->side[0], sent[ctx], round);
        }
    }
}

/* The merge of the rows r with r % SHARDS == part that any shard changed in
 * this round: global + sum_s (copy_s - global) in shard order, copied back
 * into every shard. Only this part's thread writes those rows. */
static void merge(Trainer *t, int part, int64_t round)
{
    const int32_t dim = t->dim;
    for (int m = 0; m < 2; m++)
        for (int s = 0; s < SHARDS; s++) {
            const Side *side = &t->shard[s].side[m];
            for (int64_t i = 0; i < side->n_rows; i++) {
                const int64_t row = side->rows[i];
                if (row % SHARDS != part || t->merged[m][row] == round)
                    continue;
                t->merged[m][row] = round;
                float *g = t->global[m] + row * dim;
                float *copy[SHARDS];
                for (int k = 0; k < SHARDS; k++)
                    copy[k] = t->shard[k].side[m].copy + row * dim;
                for (int32_t j = 0; j < dim; j++) {
                    float delta = copy[0][j] - g[j];
                    for (int k = 1; k < SHARDS; k++)
                        delta += copy[k][j] - g[j];
                    g[j] += delta;
                }
                for (int k = 0; k < SHARDS; k++)
                    memcpy(copy[k], g, (size_t)dim * sizeof(float));
            }
        }
}

static void *run_shard(void *arg)
{
    Shard *sh = arg;
    Trainer *t = sh->t;
    pthread_mutex_lock(&t->gate);
    int aborted = t->aborted;
    pthread_mutex_unlock(&t->gate);
    if (aborted)
        return NULL;
    const int64_t *cut = t->cut + (int64_t)sh->id * (t->rounds + 1);
    for (int64_t k = 0; k < t->max_iter; k++)
        for (int64_t r = 0; r < t->rounds; r++) {
            const int64_t round = k * t->rounds + r + 1;
            for (int64_t p = cut[r]; p < cut[r + 1]; p++)
                train_piece(sh, t->tokens + t->piece[p], t->piece_end[p] - t->piece[p],
                            t->alpha[round - 1], round);
            pthread_barrier_wait(&t->barrier);
            merge(t, sh->id, round);
            pthread_barrier_wait(&t->barrier);
            sh->side[0].n_rows = sh->side[1].n_rows = 0;
        }
    return NULL;
}

/* Cut pieces [first, last) into rounds of at least chunk_words words (the
 * last may be shorter); writes the boundaries to cut (when not NULL) and
 * returns the number of rounds. */
static int64_t cut_rounds(const int64_t *piece, const int64_t *piece_end, int64_t first,
                          int64_t last, int64_t chunk_words, int64_t *cut)
{
    int64_t rounds = 0, words = 0;
    if (cut)
        cut[0] = first;
    for (int64_t p = first; p < last; p++) {
        words += piece_end[p] - piece[p];
        if (words >= chunk_words || p == last - 1) {
            rounds++;
            if (cut)
                cut[rounds] = p + 1;
            words = 0;
        }
    }
    return rounds;
}

/* Train on the sentences tokens[offsets[s] : offsets[s + 1]] (word indices
 * into the Huffman tree; sentences longer than MAX_SENTENCE_LENGTH are cut
 * into pieces), max_iter passes over them. syn0 (words x dim) is
 * initialised here to (u - 0.5) / dim, u uniform in [0, 1) on 24 bits;
 * syn1 (words x dim) must be zero. One splitmix64 stream from seed draws
 * the initial vectors, then the seed of each shard's stream, which draws
 * the window shrink of each of its positions.
 *
 * The rate decays as in Spark on one partition, counted in the words of
 * all shards: at the start of a round, when more than 10000 words have
 * passed since the last update, it becomes lr * (1 - w / (max_iter *
 * corpus words + 1)), w the words of all passes before the round, floored
 * at lr * 1e-4; each pass starts again at lr.
 * Returns 0; -1 when out of memory; -2 when a thread could not be started.
 * On failure every thread that started has been joined. */
int sg_train(const int32_t *tokens, const int64_t *offsets, int64_t n_sentences,
             const int8_t *code, const int32_t *point, const int32_t *codelen,
             int32_t n_words, int32_t dim, int32_t window, int32_t max_iter,
             double lr, uint64_t seed, float *syn0, float *syn1)
{
    Trainer *t = calloc(1, sizeof(Trainer));
    if (!t)
        return -1;
    int rc = 0, barrier = 0, started = 0;
    int64_t n_pieces = 0, first[SHARDS + 1] = {0};
    int64_t *piece = NULL, *piece_end = NULL, *cut = NULL, *round_words = NULL;
    double *alpha = NULL;
    pthread_t thread[SHARDS];

    /* the pieces, and the first piece of each shard */
    for (int k = 0; k < SHARDS; k++) {
        first[k] = n_pieces;
        for (int64_t s = n_sentences * k / SHARDS; s < n_sentences * (k + 1) / SHARDS; s++)
            n_pieces += (offsets[s + 1] - offsets[s] + MAX_SENTENCE_LENGTH - 1) / MAX_SENTENCE_LENGTH;
    }
    first[SHARDS] = n_pieces;
    piece = malloc(((size_t)n_pieces + 1) * sizeof(int64_t));
    piece_end = malloc(((size_t)n_pieces + 1) * sizeof(int64_t));
    if (!piece || !piece_end) {
        rc = -1;
        goto done;
    }
    for (int64_t s = 0, p = 0; s < n_sentences; s++)
        for (int64_t start = offsets[s]; start < offsets[s + 1]; start += MAX_SENTENCE_LENGTH, p++) {
            piece[p] = start;
            piece_end[p] = offsets[s + 1] - start > MAX_SENTENCE_LENGTH ? start + MAX_SENTENCE_LENGTH
                                                                       : offsets[s + 1];
        }

    /* the rounds: each shard's chunks, padded with empty ones to the
     * longest shard's count, and each round's rate. A round's chunk has
     * at most about one word per vocabulary word, so that on a small
     * vocabulary the shards do not each change every row many times from
     * the same start before their changes are summed. */
    int64_t rounds = 0, chunk_words = n_words < ROUND_WORDS ? n_words : ROUND_WORDS;
    for (int s = 0; s < SHARDS; s++) {
        int64_t r = cut_rounds(piece, piece_end, first[s], first[s + 1], chunk_words, NULL);
        rounds = r > rounds ? r : rounds;
    }
    cut = malloc((size_t)SHARDS * (size_t)(rounds + 1) * sizeof(int64_t));
    round_words = calloc((size_t)rounds + 1, sizeof(int64_t));
    alpha = malloc(((size_t)max_iter * (size_t)rounds + 1) * sizeof(double));
    if (!cut || !round_words || !alpha) {
        rc = -1;
        goto done;
    }
    for (int s = 0; s < SHARDS; s++) {
        int64_t *c = cut + (int64_t)s * (rounds + 1);
        for (int64_t r = cut_rounds(piece, piece_end, first[s], first[s + 1], chunk_words, c);
             r < rounds; r++)
            c[r + 1] = c[r];
        for (int64_t r = 0; r < rounds; r++)
            for (int64_t p = c[r]; p < c[r + 1]; p++)
                round_words[r] += piece_end[p] - piece[p];
    }
    int64_t train_words = offsets[n_sentences] - offsets[0];
    double total = (double)((int64_t)max_iter * train_words + 1);
    for (int32_t k = 0; k < max_iter; k++) {
        double a = lr;
        int64_t seen = 0, last_seen = 0;
        for (int64_t r = 0; r < rounds; r++) {
            if (seen - last_seen > 10000) {
                last_seen = seen;
                a = lr * (1.0 - ((double)seen + (double)(k * train_words)) / total);
                if (a < lr * 0.0001)
                    a = lr * 0.0001;
            }
            alpha[k * rounds + r] = a;
            seen += round_words[r];
        }
    }

    *t = (Trainer){
        .tokens = tokens, .piece = piece, .piece_end = piece_end, .cut = cut, .alpha = alpha,
        .rounds = rounds, .max_iter = max_iter, .code = code, .point = point,
        .codelen = codelen, .dim = dim, .window = window, .global = {syn0, syn1},
    };
    for (int i = 0; i < EXP_TABLE_SIZE; i++) {
        double e = exp((2.0 * i / EXP_TABLE_SIZE - 1.0) * MAX_EXP);
        t->table[i] = (float)(e / (e + 1.0));
    }
    uint64_t rng = seed;
    for (int64_t i = 0; i < (int64_t)n_words * dim; i++)
        syn0[i] = ((float)(splitmix64(&rng) >> 40) / 16777216.0f - 0.5f) / (float)dim;
    size_t matrix = (size_t)n_words * (size_t)dim;
    for (int m = 0; m < 2; m++)
        if (!(t->merged[m] = calloc(n_words, sizeof(int64_t))))
            rc = -1;
    for (int s = 0; s < SHARDS; s++) {
        Shard *sh = &t->shard[s];
        sh->t = t;
        sh->id = s;
        sh->rng = splitmix64(&rng);
        if (!(sh->neu1e = malloc((size_t)dim * sizeof(float))))
            rc = -1;
        for (int m = 0; m < 2; m++) {
            Side *side = &sh->side[m];
            side->copy = malloc(matrix * sizeof(float));
            side->mark = calloc(n_words, sizeof(int64_t));
            side->rows = malloc((size_t)n_words * sizeof(int32_t));
            if (!side->copy || !side->mark || !side->rows)
                rc = -1;
            else
                memcpy(side->copy, t->global[m], matrix * sizeof(float));
        }
    }
    if (rc != 0)
        goto done;

    if (pthread_barrier_init(&t->barrier, NULL, SHARDS) != 0) {
        rc = -1;
        goto done;
    }
    barrier = 1;
    pthread_mutex_init(&t->gate, NULL);
    pthread_mutex_lock(&t->gate);
    for (; started < SHARDS; started++)
        if (pthread_create(&thread[started], NULL, run_shard, &t->shard[started]) != 0) {
            rc = -2;
            break;
        }
    t->aborted = rc != 0;
    pthread_mutex_unlock(&t->gate);
    for (int s = 0; s < started; s++)
        pthread_join(thread[s], NULL);
    pthread_mutex_destroy(&t->gate);

done:
    if (barrier)
        pthread_barrier_destroy(&t->barrier);
    for (int m = 0; m < 2; m++)
        free(t->merged[m]);
    for (int s = 0; s < SHARDS; s++) {
        free(t->shard[s].neu1e);
        for (int m = 0; m < 2; m++) {
            free(t->shard[s].side[m].copy);
            free(t->shard[s].side[m].mark);
            free(t->shard[s].side[m].rows);
        }
    }
    free(piece);
    free(piece_end);
    free(cut);
    free(round_words);
    free(alpha);
    free(t);
    return rc;
}
