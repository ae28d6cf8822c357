/* Compiled scan kernels: dense mod-p elimination, pencil minimal indices,
 * matrices of forms evaluated and reduced at many points, and the writer of
 * a full-plane scan report's rows.
 *
 * Mirrors jumplines.kernels.pure: flat row-major integer sequences, entries
 * reduced as Python's `x % p` into [0, p), first-nonzero pivoting, the same
 * column staircase for the minimal indices.  Residues are held in signed
 * 64-bit integers and two of them are multiplied before reducing, so p must
 * be below 2**31; jumplines.kernels sends larger primes to the pure twin.
 * Products are reduced without a division, by a 128-bit multiply-high, so
 * the compiler must have 128-bit integers; without them the build fails and
 * setup.py (optional=True) leaves the pure twins in charge.
 * The point loops run without the GIL, so chunked scans use real threads.
 *
 * Points: the scans take a flat coordinate list or a jumplines.geom.PlaneCoords
 * range of rows of the plane, whose points they compute from the row index as
 * report_rows does, so a scan of the plane reads no list.  They return
 * array('i') columns, written in place; rows_below picks the rows of a column
 * below a bound.
 *
 * Inverses: splitting_scan and form_matrix_scan build one table of the
 * inverses mod p per call when the call has at least p points (every
 * full-plane scan has p*p + p + 1), in O(p) and 8 * p bytes; every other
 * call (rank_mod_p, shorter point lists such as splitting_type's one point)
 * inverts by extended Euclid.  Nothing is kept between calls, so thread
 * chunks stay independent.  The pure twins invert by pow(x, p - 2, p), so
 * the parity tests check the table against an independent inverse.
 *
 * Build: python setup.py build_ext --inplace
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

#ifndef __SIZEOF_INT128__
#error "the compiled kernels need a compiler with 128-bit integers (__int128)"
#endif

typedef long long i64;
typedef unsigned long long u64;
__extension__ typedef unsigned __int128 u128;

#define P_LIMIT (1LL << 31)
#define MAX_EXP (1LL << 20)

/* pencil_degrees return codes, raised by raise_degrees_error */
enum { DEG_OK = 0, DEG_RANK_DEFICIENT, DEG_KERNEL_TOO_SMALL, DEG_NOT_FOUND };

/* A kernel call's prime modulus p with its Barrett constant
 * mu = floor((2**64 - 1) / p), and its table of inverses inv[a] = 1/a mod p
 * when the call has built one (see inverse_table), else NULL. */
typedef struct {
    i64 p;
    u64 mu;
    const i64 *inv;
} modulus;

static modulus make_modulus(i64 p)
{
    modulus md = {p, ~0ULL / (u64)p, NULL};
    return md;
}

/* x mod p without a division (Barrett, CRYPTO '86).  For every x < 2**64 the
 * quotient estimate floor(x * mu / 2**64) is floor(x / p) or one less, so one
 * conditional subtraction finishes.  Most callers pass at most a residue
 * plus a product of two residues, x < p*p + p < 2**63 for p < 2**31;
 * pencil_degrees' level-0 combination of three products and dot_mod's lazy
 * sums stay below 2**64. */
static inline i64 mod_p(u64 x, modulus md)
{
    u64 p = (u64)md.p;
    u64 r = x - (u64)(((u128)x * md.mu) >> 64) * p;
    return (i64)(r >= p ? r - p : r);
}

static i64 mod_inv(i64 a, i64 p)
{
    /* extended Euclid; a in (0, p) */
    i64 old_r = a, r = p, old_s = 1, s = 0;
    while (r != 0) {
        i64 q = old_r / r, tmp;
        tmp = old_r - q * r; old_r = r; r = tmp;
        tmp = old_s - q * s; old_s = s; s = tmp;
    }
    old_s %= p;
    return old_s < 0 ? old_s + p : old_s;
}

/* 1/a mod p for a in (0, p): from the call's table, or by extended Euclid */
static inline i64 inverse(i64 a, modulus md)
{
    return md.inv ? md.inv[a] : mod_inv(a, md.p);
}

/* Row-reduce the rows x width matrix a of residues, pivoting on its first
 * pcols columns in order and applying every row operation to the whole
 * width.  With piv == NULL only the rows below each pivot are cleared;
 * otherwise pivot rows are scaled to 1, cleared above as well (reduced row
 * echelon form) and the pivot columns are stored in piv.  When parity is
 * not NULL it receives the parity of the number of row swaps.  Returns the
 * rank of the first pcols columns. */
static int echelon(i64 *a, int rows, int width, int pcols, modulus md, int *piv, int *parity)
{
    i64 p = md.p;
    if (parity)
        *parity = 0;
    int r = 0;
    for (int c = 0; c < pcols && r < rows; c++) {
        int sel = r;
        while (sel < rows && a[(Py_ssize_t)sel * width + c] == 0)
            sel++;
        if (sel == rows)
            continue;
        i64 *pr = a + (Py_ssize_t)r * width;
        if (sel != r) {
            /* both rows are zero left of column c */
            i64 *ps = a + (Py_ssize_t)sel * width;
            for (int j = c; j < width; j++) {
                i64 v = pr[j]; pr[j] = ps[j]; ps[j] = v;
            }
            if (parity)
                *parity ^= 1;
        }
        i64 inv = inverse(pr[c], md);
        if (piv) {
            for (int j = c; j < width; j++)
                pr[j] = mod_p(pr[j] * inv, md);
            inv = 1;
            piv[r] = c;
        }
        for (int i = piv ? 0 : r + 1; i < rows; i++) {
            i64 *ri = a + (Py_ssize_t)i * width;
            i64 f = mod_p(ri[c] * inv, md);
            if (i == r || f == 0)
                continue;
            f = p - f;
            for (int j = c; j < width; j++)
                ri[j] = mod_p(ri[j] + f * pr[j], md);
        }
        r++;
    }
    return r;
}

/* Level 0's reduction of B0: its RREF red (rows x cols), pivot columns piv
 * and rank rho, as echelon leaves them.  When B1 = sum_k l[k] A_k, ak may
 * hold the products A_k * K (k = 0, 1, 2) with the kernel basis K read off
 * red, as kernel_products writes them; otherwise ak is NULL. */
typedef struct {
    const i64 *red;
    const int *piv;
    int rho;
    const i64 *ak;
    const i64 *l;
} reduction;

/* The cols - rho columns that are not among the rho pivot columns piv, in
 * order, written to freec; returns their number. */
static int free_columns(const int *piv, int rho, int cols, int *freec)
{
    int f = 0;
    for (int j = 0, t = 0; j < cols; j++) {
        if (t < rho && piv[t] == j)
            t++;
        else
            freec[f++] = j;
    }
    return f;
}

/* Entry f of row * K, K the kernel basis read off the RREF (red, piv, rho)
 * of a matrix with cols columns: for the free column f, the kernel column
 * is e_f - sum_t red[t][f] e_piv[t]. */
static inline i64 times_kernel(const i64 *row, const i64 *red, const int *piv, int rho, int cols, int f, modulus md)
{
    i64 p = md.p, acc = row[f];
    for (int t = 0; t < rho; t++)
        acc = mod_p(acc + (p - red[(Py_ssize_t)t * cols + f]) * row[piv[t]], md);
    return acc;
}

/* The products A_k * K (k = 0, 1, 2) of the rows x cols matrices a[k] with
 * the kernel basis K of the RREF (red, piv, rho), written to ak as one
 * triple per entry of the rows x (cols - rho) product.  freec is scratch for
 * cols ints. */
static void kernel_products(i64 *const a[3], int rows, int cols, const i64 *red, const int *piv, int rho,
                            modulus md, int *freec, i64 *ak)
{
    int nu = free_columns(piv, rho, cols, freec);
    for (int i = 0; i < rows; i++)
        for (int q = 0; q < nu; q++)
            for (int k = 0; k < 3; k++)
                *ak++ = times_kernel(a[k] + (Py_ssize_t)i * cols, red, piv, rho, cols, freec[q], md);
}

/* The two smallest column minimal indices of the pencil s*B0 + t*B1 (rows x
 * cols residues), written to out.  The column staircase (Van Dooren 1979):
 * at level k, B0 has a kernel K of dimension nu and B1*K has rank mu; then
 * nu - mu indices equal k.  Clearing B1*K by row operations, and dropping
 * its mu pivot rows and the nu kernel columns, leaves the pencil of level
 * k + 1, whose indices are the remaining ones less k + 1.
 *
 * The generic member must have full row rank.  Its probes are the members
 * (s, t) = (1, 0), (0, 1), (1, 1), (1, 2), (1, 3); the first is B0, whose
 * rank level 0's RREF gives, so the others run only when B0 is deficient.
 * A caller that has already reduced B0 passes level0 (else NULL); when its
 * ak is set, level 0 takes each entry of B1 * K as one reduction of
 * sum_k l[k] (A_k * K) instead of rho products.
 *
 * work holds 5 * rows * cols residues, iwork 2 * cols ints; level0->ak, when
 * set, 3 * rows * (cols - rows) residues. */
static int pencil_degrees(const i64 *b0, const i64 *b1, int rows, int cols, modulus md, const reduction *level0,
                          i64 *work, int *iwork, i64 *out)
{
    static const int probes[4][2] = {{0, 1}, {1, 1}, {1, 2}, {1, 3}};
    Py_ssize_t n = (Py_ssize_t)rows * cols;
    i64 *m0 = work, *m1 = work + n, *redw = work + 2 * n, *aug = work + 3 * n;
    int *pivw = iwork, *freec = iwork + cols;
    const i64 *red = redw, *ak = NULL;
    const int *piv = pivw;
    int rho;
    if (level0) {
        red = level0->red;
        piv = level0->piv;
        rho = level0->rho;
        ak = level0->ak;
    } else {
        memcpy(redw, b0, n * sizeof(i64));
        rho = echelon(redw, rows, cols, cols, md, pivw, NULL);
    }
    int best = rho;
    for (int t = 0; t < 4 && best < rows; t++) {
        for (Py_ssize_t i = 0; i < n; i++)
            aug[i] = mod_p(probes[t][0] * b0[i] + probes[t][1] * b1[i], md);
        int r = echelon(aug, rows, cols, cols, md, NULL, NULL);
        if (r > best)
            best = r;
    }
    if (best < rows)
        return DEG_RANK_DEFICIENT;
    if (cols - rows < 2)
        return DEG_KERNEL_TOO_SMALL;

    memcpy(m0, b0, n * sizeof(i64));
    memcpy(m1, b1, n * sizeof(i64));
    int nfound = 0;
    for (int level = 0; nfound < 2; level++) {
        if (level > 0) {
            memcpy(redw, m0, (Py_ssize_t)rows * cols * sizeof(i64));
            rho = echelon(redw, rows, cols, cols, md, pivw, NULL);
            red = redw;
            piv = pivw;
            ak = NULL;
        }
        int nu = free_columns(piv, rho, cols, freec);
        if (nu == 0)
            return DEG_NOT_FOUND;
        /* aug = [B1*K | B0 on pivot columns | B1 on pivot columns] */
        int width = nu + 2 * rho;
        for (int i = 0; i < rows; i++) {
            const i64 *row0 = m0 + (Py_ssize_t)i * cols, *row1 = m1 + (Py_ssize_t)i * cols;
            i64 *a = aug + (Py_ssize_t)i * width;
            for (int q = 0; q < nu; q++) {
                if (ak) {
                    const i64 *e = ak + 3 * ((Py_ssize_t)i * nu + q), *l = level0->l;
                    a[q] = mod_p((u64)(l[0] * e[0]) + (u64)(l[1] * e[1]) + (u64)(l[2] * e[2]), md);
                } else {
                    a[q] = times_kernel(row1, red, piv, rho, cols, freec[q], md);
                }
            }
            for (int t = 0; t < rho; t++) {
                a[nu + t] = row0[piv[t]];
                a[nu + rho + t] = row1[piv[t]];
            }
        }
        int mu = echelon(aug, rows, width, nu, md, NULL, NULL);
        for (int k = nu - mu; k > 0 && nfound < 2; k--)
            out[nfound++] = level;
        rows -= mu;
        cols = rho;
        for (int i = 0; i < rows; i++) {
            const i64 *a = aug + (Py_ssize_t)(i + mu) * width;
            memcpy(m0 + (Py_ssize_t)i * cols, a + nu, rho * sizeof(i64));
            memcpy(m1 + (Py_ssize_t)i * cols, a + nu + rho, rho * sizeof(i64));
        }
    }
    return DEG_OK;
}

/* The two forms spanning the lines through the point x (residues, not all
 * zero): e_j - (x_j / x_i0) e_i0 for the two j != i0, i0 the first nonzero
 * coordinate.  Returns -1 when x is zero. */
static int dual_basis(const i64 *x, modulus md, i64 *l0, i64 *l1)
{
    i64 p = md.p;
    int i0 = 0;
    while (i0 < 3 && x[i0] == 0)
        i0++;
    if (i0 == 3)
        return -1;
    i64 inv = inverse(x[i0], md);
    i64 *forms[2] = {l0, l1};
    for (int j = 0, k = 0; j < 3; j++) {
        if (j == i0)
            continue;
        forms[k][0] = forms[k][1] = forms[k][2] = 0;
        forms[k][j] = 1;
        i64 v = mod_p(x[j] * inv, md);
        forms[k][i0] = v ? p - v : 0;
        k++;
    }
    return 0;
}

/* Row i of plane_points(p), written to x: (i / p, i % p, 1) for i < p*p, then
 * (i - p*p, 1, 0), then (1, 0, 0). */
static inline void plane_point(i64 i, i64 p, i64 *x)
{
    i64 pp = p * p;
    if (i < pp) {
        x[0] = i / p; x[1] = i % p; x[2] = 1;
    } else if (i < pp + p) {
        x[0] = i - pp; x[1] = 1; x[2] = 0;
    } else {
        x[0] = 1; x[1] = 0; x[2] = 0;
    }
}

/* The n points a scan visits: the coordinate triples at flat (residues) when
 * it is set, else the rows start, start + 1, ... of plane_points(p). */
typedef struct {
    i64 *flat;
    i64 start;
    Py_ssize_t n;
} point_list;

/* Point k of pts; a plane row is computed into buf. */
static inline const i64 *point_at(const point_list *pts, Py_ssize_t k, i64 p, i64 *buf)
{
    if (pts->flat)
        return pts->flat + 3 * k;
    plane_point(pts->start + k, p, buf);
    return buf;
}

/* ---- Python boundary ---------------------------------------------------- */

/* Deterministic Miller-Rabin for 2 <= n < 2**31: the bases 2, 7 and 61 decide
 * every n below 4 759 123 141 (Jaeschke 1993), and n < 2**31 keeps each
 * product of two residues below 2**62. */
static int is_prime(i64 n)
{
    static const i64 bases[3] = {2, 7, 61};
    for (int i = 0; i < 3; i++)
        if (n % bases[i] == 0)
            return n == bases[i];
    i64 d = n - 1;
    int s = 0;
    while (d % 2 == 0) {
        d /= 2;
        s++;
    }
    for (int i = 0; i < 3; i++) {
        i64 x = 1, b = bases[i];
        for (i64 e = d; e; e >>= 1) {
            if (e & 1)
                x = x * b % n;
            b = b * b % n;
        }
        if (x == 1 || x == n - 1)
            continue;
        int r = 1;
        for (; r < s; r++) {
            x = x * x % n;
            if (x == n - 1)
                break;
        }
        if (r == s)
            return 0;
    }
    return 1;
}

/* Every inverse in the kernels assumes a prime modulus. */
static int check_modulus(i64 p)
{
    if (p < 2 || p >= P_LIMIT) {
        PyErr_SetString(PyExc_ValueError, "compiled kernels need a modulus in [2, 2**31)");
        return -1;
    }
    if (!is_prime(p)) {
        PyErr_Format(PyExc_ValueError, "the kernels need a prime modulus, got %lld", p);
        return -1;
    }
    return 0;
}

static int check_shape(int rows, int cols)
{
    if (rows < 0 || cols < 0) {
        PyErr_SetString(PyExc_ValueError, "matrix dimensions must be non-negative");
        return -1;
    }
    return 0;
}

static void *alloc(Py_ssize_t count, size_t size)
{
    void *mem = PyMem_Calloc(count > 0 ? (size_t)count : 1, size);
    if (!mem)
        PyErr_NoMemory();
    return mem;
}

/* The table of inverses mod the prime p, inv[a] = 1/a for a in (0, p),
 * filled in O(p) by inv[i] = -(p / i) * inv[p % i], which follows from
 * p = (p / i) * i + p % i.  Scans build it only when they have at least p
 * points, so it is no larger than their point buffer.  Returns NULL with an
 * exception set when the allocation fails. */
static i64 *inverse_table(modulus md)
{
    i64 p = md.p, *inv = alloc(p, sizeof(i64));
    if (!inv)
        return NULL;
    inv[1] = 1;
    for (i64 i = 2; i < p; i++)
        inv[i] = mod_p((p - p / i) * inv[p % i], md);
    return inv;
}

/* The first n items of the sequence obj as Python ints, each reduced as
 * Python's `x % p` when p > 0 and taken as is when p == 0.  Returns a new
 * buffer, or NULL with an exception set. */
static i64 *read_ints(PyObject *obj, Py_ssize_t n, i64 p)
{
    PyObject *seq = PySequence_Fast(obj, "expected a sequence of integers");
    if (!seq)
        return NULL;
    i64 *out = NULL;
    if (PySequence_Fast_GET_SIZE(seq) < n) {
        PyErr_SetString(PyExc_IndexError, "sequence is shorter than the given shape");
        goto done;
    }
    out = alloc(n, sizeof(i64));
    if (!out)
        goto done;
    PyObject **items = PySequence_Fast_ITEMS(seq);
    for (Py_ssize_t i = 0; i < n; i++) {
        int overflow;
        i64 v = PyLong_AsLongLongAndOverflow(items[i], &overflow);
        if (!overflow) {
            if (v == -1 && PyErr_Occurred())
                goto fail;
            if (p) {
                v %= p;
                v = v < 0 ? v + p : v;
            }
        } else {
            PyObject *mod = p ? PyLong_FromLongLong(p) : NULL;
            PyObject *rem = mod ? PyNumber_Remainder(items[i], mod) : NULL;
            Py_XDECREF(mod);
            if (!rem) {
                if (!p)
                    PyErr_SetString(PyExc_OverflowError, "integer does not fit in 64 bits");
                goto fail;
            }
            v = PyLong_AsLongLong(rem);
            Py_DECREF(rem);
            if (v == -1 && PyErr_Occurred())
                goto fail;
        }
        out[i] = v;
    }
    goto done;
fail:
    PyMem_Free(out);
    out = NULL;
done:
    Py_DECREF(seq);
    return out;
}

/* The points of obj for a scan mod p: a jumplines.geom.PlaneCoords range is
 * read as (p, start, stop), anything else as a sequence of coordinate triples
 * reduced mod p (a trailing partial triple ignored) into a new buffer
 * pts->flat, which the caller frees.  Returns 0, or -1 with an exception set;
 * a range over another field, or one that is not within the p*p + p + 1 rows
 * of the plane, raises ValueError. */
static int read_points(PyObject *obj, i64 p, point_list *pts)
{
    static const char *names[3] = {"p", "start", "stop"};
    pts->flat = NULL;
    pts->start = 0;
    pts->n = 0;
    PyObject *geom = PyImport_ImportModule("jumplines.geom");
    PyObject *cls = geom ? PyObject_GetAttrString(geom, "PlaneCoords") : NULL;
    int is_range = cls ? PyObject_IsInstance(obj, cls) : -1;
    Py_XDECREF(geom);
    Py_XDECREF(cls);
    if (is_range < 0)
        return -1;
    if (!is_range) {
        Py_ssize_t len = PyObject_Length(obj);
        if (len < 0)
            return -1;
        pts->n = len / 3;
        pts->flat = read_ints(obj, 3 * pts->n, p);
        return pts->flat ? 0 : -1;
    }
    long long v[3];
    for (int k = 0; k < 3; k++) {
        PyObject *attr = PyObject_GetAttrString(obj, names[k]);
        v[k] = attr ? PyLong_AsLongLong(attr) : -1;
        Py_XDECREF(attr);
        if (v[k] == -1 && PyErr_Occurred())
            return -1;
    }
    if (v[0] != p) {
        PyErr_Format(PyExc_ValueError, "a plane range over F_%lld given to a kernel mod %lld", v[0], p);
        return -1;
    }
    if (v[1] < 0 || v[1] > v[2] || v[2] > p * p + p + 1) {
        PyErr_SetString(PyExc_ValueError, "a plane range must lie within the p*p + p + 1 rows of the plane");
        return -1;
    }
    pts->start = v[1];
    pts->n = (Py_ssize_t)(v[2] - v[1]);
    return 0;
}

/* An array('i') column being written: the array and its items, exported. */
typedef struct {
    PyObject *obj;
    Py_buffer view;
    int *data;
} column;

/* Makes c a new array('i') of n zeros, its items exported for writing.
 * Returns 0, or -1 with an exception set and c->obj NULL. */
static int column_new(column *c, Py_ssize_t n)
{
    PyObject *mod = PyImport_ImportModule("array");
    PyObject *zero = mod ? PyObject_CallMethod(mod, "array", "s[i]", "i", 0) : NULL;
    c->obj = zero ? PySequence_Repeat(zero, n) : NULL;
    Py_XDECREF(mod);
    Py_XDECREF(zero);
    if (c->obj && PyObject_GetBuffer(c->obj, &c->view, PyBUF_WRITABLE | PyBUF_C_CONTIGUOUS) < 0)
        Py_CLEAR(c->obj);
    c->data = c->obj ? c->view.buf : NULL;
    return c->obj ? 0 : -1;
}

/* Ends the export of c's items; c->obj stays. */
static void column_done(column *c)
{
    if (c->obj)
        PyBuffer_Release(&c->view);
}

/* (a, b) for two finished columns, or NULL; drops the references to both. */
static PyObject *column_pair(column *a, column *b, int ok)
{
    PyObject *res = ok ? PyTuple_Pack(2, a->obj, b->obj) : NULL;
    Py_XDECREF(a->obj);
    Py_XDECREF(b->obj);
    return res;
}

static PyObject *raise_degrees_error(int rc)
{
    const char *msg = rc == DEG_RANK_DEFICIENT ? "pencil is rank deficient for generic members"
                      : rc == DEG_KERNEL_TOO_SMALL ? "pencil kernel is too small"
                                                   : "minimal indices not found within the degree cap";
    PyErr_SetString(PyExc_ArithmeticError, msg);
    return NULL;
}

static PyObject *rank_mod_p(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"flat", "rows", "cols", "p", NULL};
    PyObject *flat;
    int rows, cols;
    long long p;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OiiL", kwlist, &flat, &rows, &cols, &p)
        || check_shape(rows, cols) < 0 || check_modulus(p) < 0)
        return NULL;
    i64 *a = read_ints(flat, (Py_ssize_t)rows * cols, p);
    if (!a)
        return NULL;
    int r;
    Py_BEGIN_ALLOW_THREADS
    r = echelon(a, rows, cols, cols, make_modulus(p), NULL, NULL);
    Py_END_ALLOW_THREADS
    PyMem_Free(a);
    return PyLong_FromLong(r);
}

/* The splitting type (eps1, eps2) of the Steiner bundle on the dual line of
 * each point: the two smallest column minimal indices of the pencil A(l0),
 * A(l1) restricted to that line, each plus the twist 1, as two array('i')
 * columns. */
static PyObject *splitting_scan(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"a0", "a1", "a2", "rows", "cols", "pts_flat", "p", NULL};
    PyObject *a[3], *pts_obj;
    int rows, cols;
    long long p;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOiiOL", kwlist, &a[0], &a[1], &a[2], &rows, &cols,
                                     &pts_obj, &p)
        || check_shape(rows, cols) < 0 || check_modulus(p) < 0)
        return NULL;
    Py_ssize_t n = (Py_ssize_t)rows * cols;
    int ok = 0;
    i64 *ca[3] = {NULL, NULL, NULL};
    i64 *b = NULL, *red = NULL, *ak = NULL, *work = NULL, *inv = NULL;
    int *piv = NULL, *iwork = NULL;
    point_list pts = {NULL, 0, 0};
    column eps1 = {NULL}, eps2 = {NULL};
    modulus md = make_modulus(p);
    for (int k = 0; k < 3; k++)
        if (!(ca[k] = read_ints(a[k], n, p)))
            goto done;
    if (read_points(pts_obj, p, &pts) < 0 || !(b = alloc(2 * n, sizeof(i64)))
        || !(red = alloc(2 * n, sizeof(i64))) || !(piv = alloc(2 * (Py_ssize_t)cols, sizeof(int)))
        || !(ak = alloc(6 * n, sizeof(i64))) || !(work = alloc(5 * n, sizeof(i64)))
        || !(iwork = alloc(2 * (Py_ssize_t)cols, sizeof(int))) || (pts.n >= p && !(inv = inverse_table(md)))
        || column_new(&eps1, pts.n) < 0 || column_new(&eps2, pts.n) < 0)
        goto done;
    md.inv = inv;
    int rc = DEG_OK, bad_point = 0;
    /* Consecutive plane points share a form of their dual basis: the points
     * (a, b, 1) with a != 0 share l1 = e2 - e0/a along a row, the points
     * (0, b, 1) share l0 = e0 and the points at infinity l1 = e2.  Member h,
     * B_h = A(l_h), is rebuilt only when its form changes (a zero form means
     * none is built yet: a dual form has a coefficient 1), and its RREF (rank
     * rho[h], -1 until computed) once the next point shares it.  The column
     * minimal indices do not depend on the basis of the pencil, so the
     * staircase runs with the shared member as B0.  Its full row rank
     * proves the generic rank, so no probe runs, and with its RREF comes
     * A_k * K for its kernel basis K (ak, 3 * n residues per member):
     * level 0's B1 * K is then the combination sum_k l[k] A_k * K for the
     * other form l.  When the shared member is
     * deficient the point takes the plain call on (B0, B1), whose probes
     * and errors the per-point kernel has. */
    i64 form[2][3] = {{0, 0, 0}, {0, 0, 0}};
    int rho[2] = {-1, -1};
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t pt = 0; pt < pts.n && rc == DEG_OK; pt++) {
        i64 l[2][3], xb[3], deg[2];
        if (dual_basis(point_at(&pts, pt, p, xb), md, l[0], l[1]) < 0) {
            bad_point = 1;
            break;
        }
        int shared = -1;
        for (int h = 0; h < 2; h++) {
            if (memcmp(form[h], l[h], sizeof form[h]) == 0) {
                if (shared < 0)
                    shared = h;
                continue;
            }
            memcpy(form[h], l[h], sizeof form[h]);
            rho[h] = -1;
            /* each form has one coefficient 1 and one 0, so an entry is a
             * residue plus one product */
            for (Py_ssize_t i = 0; i < n; i++)
                b[h * n + i] = mod_p(l[h][0] * ca[0][i] + l[h][1] * ca[1][i] + l[h][2] * ca[2][i], md);
        }
        if (shared >= 0 && rho[shared] < 0) {
            memcpy(red + shared * n, b + shared * n, n * sizeof(i64));
            rho[shared] = echelon(red + shared * n, rows, cols, cols, md, piv + shared * cols, NULL);
            if (rho[shared] == rows)
                kernel_products(ca, rows, cols, red + shared * n, piv + shared * cols, rows, md, iwork,
                                ak + shared * 3 * n);
        }
        if (shared >= 0 && rho[shared] == rows) {
            reduction level0 = {red + shared * n, piv + shared * cols, rows, ak + shared * 3 * n, form[1 - shared]};
            rc = pencil_degrees(b + shared * n, b + (1 - shared) * n, rows, cols, md, &level0, work, iwork, deg);
        } else {
            rc = pencil_degrees(b, b + n, rows, cols, md, NULL, work, iwork, deg);
        }
        if (rc == DEG_OK) {
            eps1.data[pt] = (int)deg[0] + 1;
            eps2.data[pt] = (int)deg[1] + 1;
        }
    }
    Py_END_ALLOW_THREADS
    if (bad_point)
        PyErr_SetString(PyExc_ValueError, "(0, 0, 0) is not a point of the plane");
    else if (rc != DEG_OK)
        raise_degrees_error(rc);
    else
        ok = 1;
done:
    for (int k = 0; k < 3; k++)
        PyMem_Free(ca[k]);
    PyMem_Free(pts.flat); PyMem_Free(b); PyMem_Free(red); PyMem_Free(piv); PyMem_Free(ak); PyMem_Free(work);
    PyMem_Free(iwork); PyMem_Free(inv);
    column_done(&eps1);
    column_done(&eps2);
    return column_pair(&eps1, &eps2, ok);
}

/* The first nmono exponent triples of obj, each exponent in [0, 2**20];
 * *deg receives the largest total degree.  Returns a new buffer, or NULL
 * with an exception set. */
static i64 *read_exponents(PyObject *obj, Py_ssize_t nmono, i64 *deg)
{
    i64 *ee = read_ints(obj, 3 * nmono, 0);
    if (!ee)
        return NULL;
    *deg = 0;
    for (Py_ssize_t i = 0; i < nmono; i++) {
        const i64 *e = ee + 3 * i;
        if (e[0] < 0 || e[1] < 0 || e[2] < 0 || e[0] > MAX_EXP || e[1] > MAX_EXP || e[2] > MAX_EXP) {
            PyErr_SetString(PyExc_ValueError, "exponents must lie in [0, 2**20]");
            PyMem_Free(ee);
            return NULL;
        }
        if (e[0] + e[1] + e[2] > *deg)
            *deg = e[0] + e[1] + e[2];
    }
    return ee;
}

/* The dot product mod p of n coefficients and n monomial values.  Each
 * product is below 2**62, so an unsigned sum below 2**63 can take one more
 * before it is reduced: for small p it is reduced only once. */
static i64 dot_mod(const i64 *c, const i64 *v, Py_ssize_t n, modulus md)
{
    u64 acc = 0;
    for (Py_ssize_t k = 0; k < n; k++) {
        acc += (u64)(c[k] * v[k]);
        if (acc >> 63)
            acc = (u64)mod_p(acc, md);
    }
    return mod_p(acc, md);
}

/* Values at the point x of the nmono monomials with exponent triples ee
 * (total degree at most deg), written to mv.  pw is scratch for the powers
 * of the three coordinates, 3 * (deg + 1) residues. */
static void monomial_values(const i64 *x, const i64 *ee, Py_ssize_t nmono, i64 deg, modulus md, i64 *pw,
                            i64 *mv)
{
    i64 *px = pw, *py = pw + deg + 1, *pz = pw + 2 * (deg + 1);
    px[0] = py[0] = pz[0] = 1;
    for (i64 i = 1; i <= deg; i++) {
        px[i] = mod_p(px[i - 1] * x[0], md);
        py[i] = mod_p(py[i - 1] * x[1], md);
        pz[i] = mod_p(pz[i - 1] * x[2], md);
    }
    for (Py_ssize_t i = 0; i < nmono; i++) {
        const i64 *e = ee + 3 * i;
        mv[i] = mod_p(mod_p(px[e[0]] * py[e[1]], md) * pz[e[2]], md);
    }
}

/* The values of one form at each point, as an array('i') column. */
static PyObject *eval_form_many(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"coeffs", "exps_flat", "pts_flat", "p", NULL};
    PyObject *coeffs_obj, *exps_obj, *pts_obj;
    long long p;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOL", kwlist, &coeffs_obj, &exps_obj, &pts_obj, &p)
        || check_modulus(p) < 0)
        return NULL;
    Py_ssize_t nmono = PyObject_Length(coeffs_obj);
    if (nmono < 0)
        return NULL;
    i64 deg = 0;
    i64 *cc = NULL, *ee = NULL, *pw = NULL, *mv = NULL;
    point_list pts = {NULL, 0, 0};
    column vals = {NULL};
    if (!(cc = read_ints(coeffs_obj, nmono, p)) || !(ee = read_exponents(exps_obj, nmono, &deg))
        || read_points(pts_obj, p, &pts) < 0 || !(pw = alloc(3 * (deg + 1), sizeof(i64)))
        || !(mv = alloc(nmono, sizeof(i64))) || column_new(&vals, pts.n) < 0)
        goto done;
    modulus md = make_modulus(p);
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t pt = 0; pt < pts.n; pt++) {
        i64 xb[3];
        monomial_values(point_at(&pts, pt, p, xb), ee, nmono, deg, md, pw, mv);
        vals.data[pt] = (int)dot_mod(cc, mv, nmono, md);
    }
    Py_END_ALLOW_THREADS
done:
    PyMem_Free(cc); PyMem_Free(ee); PyMem_Free(pts.flat); PyMem_Free(pw); PyMem_Free(mv);
    column_done(&vals);
    return vals.obj;
}

/* Rank and determinant mod p of a rows x cols matrix of forms at each point,
 * as two array('i') columns.  The entries share the monomials of exps_flat;
 * coeffs holds the coefficients of each entry in turn, row by row.  Per point
 * the monomial values are computed once, every entry is evaluated from them
 * and echelon reduces the result; the determinant is the signed product of
 * the pivots when the matrix is square and of full rank, and 0 otherwise. */
static PyObject *form_matrix_scan(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"coeffs", "exps_flat", "rows", "cols", "pts_flat", "p", NULL};
    PyObject *coeffs_obj, *exps_obj, *pts_obj;
    int rows, cols;
    long long p;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOiiOL", kwlist, &coeffs_obj, &exps_obj, &rows, &cols,
                                     &pts_obj, &p)
        || check_shape(rows, cols) < 0 || check_modulus(p) < 0)
        return NULL;
    Py_ssize_t nmono = PyObject_Length(exps_obj);
    if (nmono < 0)
        return NULL;
    nmono /= 3;
    Py_ssize_t nent = (Py_ssize_t)rows * cols;
    if (nmono && nent > PY_SSIZE_T_MAX / nmono) {
        /* no sequence holds that many coefficients */
        PyErr_SetString(PyExc_IndexError, "sequence is shorter than the given shape");
        return NULL;
    }
    int ok = 0;
    i64 deg = 0;
    i64 *cc = NULL, *ee = NULL, *pw = NULL, *mv = NULL, *a = NULL, *inv = NULL;
    point_list pts = {NULL, 0, 0};
    column ranks = {NULL}, dets = {NULL};
    modulus md = make_modulus(p);
    if (!(cc = read_ints(coeffs_obj, nent * nmono, p)) || !(ee = read_exponents(exps_obj, nmono, &deg))
        || read_points(pts_obj, p, &pts) < 0 || !(pw = alloc(3 * (deg + 1), sizeof(i64)))
        || !(mv = alloc(nmono, sizeof(i64))) || !(a = alloc(nent, sizeof(i64)))
        || (pts.n >= p && !(inv = inverse_table(md))) || column_new(&ranks, pts.n) < 0
        || column_new(&dets, pts.n) < 0)
        goto done;
    md.inv = inv;
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t pt = 0; pt < pts.n; pt++) {
        i64 xb[3];
        monomial_values(point_at(&pts, pt, p, xb), ee, nmono, deg, md, pw, mv);
        for (Py_ssize_t e = 0; e < nent; e++)
            a[e] = dot_mod(cc + e * nmono, mv, nmono, md);
        int parity;
        int r = echelon(a, rows, cols, cols, md, NULL, &parity);
        i64 d = 0;
        if (rows == cols && r == rows) {
            d = 1;
            for (int i = 0; i < rows; i++)
                d = mod_p(d * a[(Py_ssize_t)i * cols + i], md);
            if (parity)
                d = p - d;
        }
        ranks.data[pt] = r;
        dets.data[pt] = (int)d;
    }
    Py_END_ALLOW_THREADS
    ok = 1;
done:
    PyMem_Free(cc); PyMem_Free(ee); PyMem_Free(pts.flat); PyMem_Free(pw); PyMem_Free(mv); PyMem_Free(a);
    PyMem_Free(inv);
    column_done(&ranks);
    column_done(&dets);
    return column_pair(&ranks, &dets, ok);
}

/* ---- Scan reports ------------------------------------------------------- */

/* The characters "%d" writes for v. */
static inline int decimal_width(i64 v)
{
    u64 u = v < 0 ? 0 - (u64)v : (u64)v;
    int n = 1 + (v < 0);
    while (u >= 10) {
        u /= 10;
        n++;
    }
    return n;
}

/* Writes v as "%d" does at s; returns the end of what it wrote. */
static inline char *put_decimal(char *s, i64 v)
{
    char tmp[20];
    int k = 0;
    u64 u = v < 0 ? 0 - (u64)v : (u64)v;
    if (v < 0)
        *s++ = '-';
    do {
        tmp[k++] = (char)('0' + u % 10);
        u /= 10;
    } while (u);
    while (k)
        *s++ = tmp[--k];
    return s;
}

/* The first six values of report row i (x0, x1, x2, eps1, eps2, order), the
 * point of row i of plane_points. */
static inline void report_values(Py_ssize_t i, i64 p, const int *eps1, const int *eps2, i64 top, i64 *v)
{
    plane_point(i, p, v);
    v[3] = eps1[i];
    v[4] = eps2[i];
    v[5] = top - eps1[i];
}

/* The int items of the one-dimensional array('i') column obj, in view;
 * returns -1 with ValueError set otherwise (TypeError when obj exports no
 * buffer). */
static int read_column(PyObject *obj, Py_buffer *view)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return -1;
    if (view->ndim != 1 || view->itemsize != sizeof(int) || !view->format || strcmp(view->format, "i") != 0) {
        PyBuffer_Release(view);
        PyErr_SetString(PyExc_ValueError, "columns must be array('i')");
        return -1;
    }
    return 0;
}

/* The rows of a full-plane report column: read_column, holding n items. */
static int read_report_column(PyObject *obj, Py_ssize_t n, Py_buffer *view)
{
    if (read_column(obj, view) < 0)
        return -1;
    if (view->len / view->itemsize != n) {
        PyBuffer_Release(view);
        PyErr_SetString(PyExc_ValueError, "report columns must be array('i') of p*p + p + 1 items");
        return -1;
    }
    return 0;
}

/* The row indices, ascending, of the items of an array('i') column that are
 * below a bound, as a list: the rows that jump, or whose rank drops, are few,
 * so this is how the callers reach them without a Python loop over the
 * others. */
static PyObject *rows_below(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"col", "bound", NULL};
    PyObject *col_obj;
    long long bound;
    Py_buffer view;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OL", kwlist, &col_obj, &bound) || read_column(col_obj, &view) < 0)
        return NULL;
    const int *col = view.buf;
    Py_ssize_t n = view.len / view.itemsize, count = 0;
    for (Py_ssize_t i = 0; i < n; i++)
        count += col[i] < bound;
    PyObject *res = PyList_New(count);
    for (Py_ssize_t i = 0, k = 0; res && k < count; i++) {
        if (col[i] >= bound)
            continue;
        PyObject *row = PyLong_FromSsize_t(i);
        if (!row) {
            Py_CLEAR(res);
            break;
        }
        PyList_SET_ITEM(res, k++, row);
    }
    PyBuffer_Release(&view);
    return res;
}

static int compare_indices(const void *a, const void *b)
{
    Py_ssize_t x = *(const Py_ssize_t *)a, y = *(const Py_ssize_t *)b;
    return (x > y) - (x < y);
}

/* The row indices of the sequence obj, each in [0, n), sorted ascending and
 * ended by n, in a new buffer; NULL with an exception set otherwise. */
static Py_ssize_t *read_rows(PyObject *obj, Py_ssize_t n)
{
    PyObject *seq = PySequence_Fast(obj, "expected a sequence of row indices");
    if (!seq)
        return NULL;
    Py_ssize_t len = PySequence_Fast_GET_SIZE(seq);
    Py_ssize_t *out = alloc(len + 1, sizeof(Py_ssize_t));
    if (!out)
        goto done;
    PyObject **items = PySequence_Fast_ITEMS(seq);
    for (Py_ssize_t k = 0; k < len; k++) {
        int overflow;
        long long v = PyLong_AsLongLongAndOverflow(items[k], &overflow);
        if (v == -1 && PyErr_Occurred())
            goto fail;
        if (overflow || v < 0 || v >= n) {
            PyErr_SetString(PyExc_ValueError, "report row indices must lie in [0, p*p + p + 1)");
            goto fail;
        }
        out[k] = (Py_ssize_t)v;
    }
    qsort(out, (size_t)len, sizeof(Py_ssize_t), compare_indices);
    out[len] = n;
    goto done;
fail:
    PyMem_Free(out);
    out = NULL;
done:
    Py_DECREF(seq);
    return out;
}

/* Is row i marked in the ascending list *rows?  Moves *rows past i; the rows
 * must be asked for in ascending order. */
static inline int marked(const Py_ssize_t **rows, Py_ssize_t i)
{
    int hit = 0;
    while (**rows == i) {
        hit = 1;
        (*rows)++;
    }
    return hit;
}

/* The text around a report row's eight values: before the first, between
 * two, after the last, and between two rows. */
typedef struct {
    const char *open, *sep, *close, *join;
} row_format;

static const row_format csv_rows = {"", ",", "\n", ""};
/* as json.dumps(indent=2) writes a list of ints inside the "records" list */
static const row_format json_rows = {"    [\n      ", ",\n      ", "\n    ]", ",\n"};

static inline char *put_text(char *s, const char *t)
{
    while (*t)
        *s++ = *t++;
    return s;
}

/* Every row of a full-plane scan report as text, in plane_points order: row i
 * is (x0, x1, x2, eps1[i], eps2[i], top - eps1[i], in Z, in Gamma), with the
 * point computed from i.  The first pass counts the characters, so the str
 * is allocated at its exact length and written in place: nothing is
 * allocated per row.  Both passes hold the GIL, so no other thread can
 * change a column between them and make the second write past the length
 * the first counted. */
static PyObject *report_rows(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"p", "eps1", "eps2", "top", "zrows", "grows", "csv", NULL};
    PyObject *eps1_obj, *eps2_obj, *zrows_obj, *grows_obj;
    long long p;
    int top, csv;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "LOOiOOp", kwlist, &p, &eps1_obj, &eps2_obj, &top, &zrows_obj,
                                     &grows_obj, &csv)
        || check_modulus(p) < 0)
        return NULL;
    Py_ssize_t n = (Py_ssize_t)(p * p + p + 1);
    Py_buffer c1, c2;
    if (read_report_column(eps1_obj, n, &c1) < 0)
        return NULL;
    if (read_report_column(eps2_obj, n, &c2) < 0) {
        PyBuffer_Release(&c1);
        return NULL;
    }
    PyObject *res = NULL;
    Py_ssize_t *zrows = read_rows(zrows_obj, n), *grows = zrows ? read_rows(grows_obj, n) : NULL;
    if (!grows)
        goto done;
    const int *eps1 = c1.buf, *eps2 = c2.buf;
    const row_format *f = csv ? &csv_rows : &json_rows;
    Py_ssize_t join = (Py_ssize_t)strlen(f->join);
    /* the two flags are one digit each */
    Py_ssize_t fixed = (Py_ssize_t)(strlen(f->open) + 7 * strlen(f->sep) + strlen(f->close)) + join + 2;
    Py_ssize_t len = -join;
    i64 v[8];
    for (Py_ssize_t i = 0; i < n; i++) {
        report_values(i, p, eps1, eps2, top, v);
        len += fixed;
        for (int k = 0; k < 6; k++)
            len += decimal_width(v[k]);
    }
    res = PyUnicode_New(len, 127);
    if (!res)
        goto done;
    char *s = (char *)PyUnicode_1BYTE_DATA(res);
    const Py_ssize_t *z = zrows, *g = grows;
    for (Py_ssize_t i = 0; i < n; i++) {
        report_values(i, p, eps1, eps2, top, v);
        v[6] = marked(&z, i);
        v[7] = marked(&g, i);
        if (i)
            s = put_text(s, f->join);
        s = put_text(s, f->open);
        for (int k = 0; k < 8; k++) {
            if (k)
                s = put_text(s, f->sep);
            s = put_decimal(s, v[k]);
        }
        s = put_text(s, f->close);
    }
done:
    PyMem_Free(zrows);
    PyMem_Free(grows);
    PyBuffer_Release(&c1);
    PyBuffer_Release(&c2);
    return res;
}

static PyMethodDef methods[] = {
    {"rank_mod_p", (PyCFunction)(void (*)(void))rank_mod_p, METH_VARARGS | METH_KEYWORDS,
     "rank_mod_p(flat, rows, cols, p)\n--\n\nRank mod p of a rows x cols matrix."},
    {"splitting_scan", (PyCFunction)(void (*)(void))splitting_scan, METH_VARARGS | METH_KEYWORDS,
     "splitting_scan(a0, a1, a2, rows, cols, pts_flat, p)\n--\n\n"
     "(eps1, eps2) array('i') columns: the two smallest kernel degrees, plus 1,\n"
     "of the pencil restricted to the dual line of each point."},
    {"eval_form_many", (PyCFunction)(void (*)(void))eval_form_many, METH_VARARGS | METH_KEYWORDS,
     "eval_form_many(coeffs, exps_flat, pts_flat, p)\n--\n\n"
     "array('i') column of the values of one form at many points."},
    {"form_matrix_scan", (PyCFunction)(void (*)(void))form_matrix_scan, METH_VARARGS | METH_KEYWORDS,
     "form_matrix_scan(coeffs, exps_flat, rows, cols, pts_flat, p)\n--\n\n"
     "(ranks, dets) array('i') columns: the rank and the determinant (0 unless\n"
     "square and of full rank) of a matrix of forms at each point."},
    {"rows_below", (PyCFunction)(void (*)(void))rows_below, METH_VARARGS | METH_KEYWORDS,
     "rows_below(col, bound)\n--\n\nRow indices of the items of an array('i') column below bound."},
    {"report_rows", (PyCFunction)(void (*)(void))report_rows, METH_VARARGS | METH_KEYWORDS,
     "report_rows(p, eps1, eps2, top, zrows, grows, csv)\n--\n\n"
     "Every row of a full-plane scan report as JSON or CSV text, in plane order."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "jumplines._fastkern",
    "Compiled scan kernels: dense mod-p elimination and pencil minimal indices.", -1, methods,
};

PyMODINIT_FUNC PyInit__fastkern(void)
{
    PyObject *mod = PyModule_Create(&module);
    if (mod && PyModule_AddStringConstant(mod, "BACKEND", "compiled") < 0)
        Py_CLEAR(mod);
    return mod;
}
