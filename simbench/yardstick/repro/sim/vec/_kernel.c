/* Compiled event kernel for the batched backend (repro.sim.vec.kernel).
 *
 * This extension owns the pending-event set (a C binary heap of typed
 * event structs) and runs the hot opcode handlers -- RECV/ENTER,
 * PWAKE/NWAKE elided-event retries, VC round-robin arbitration and the
 * queue-length updates -- as straight C over the *existing*
 * ``SoAState`` Python lists and deques.  It escapes to the interpreter
 * only for the boundary events the Python loop also treats as escapes:
 * NIC sends (``make_packet`` routing + RNG), deliver callbacks, CALL
 * events and fault diverts.
 *
 * Exactness contract (see repro/sim/vec/engine.py for the full model):
 * every handler below is a line-for-line port of the corresponding
 * closure in ``BatchedEngine.run`` -- same sequence-reservation
 * increments in the same order, same lazy busy/credit comparisons,
 * same float additions producing timestamps.  The binary heap pops in
 * the identical global ``(time, seq)`` order as the calendar queue:
 * pushes are never at or before the currently executing key, and the
 * only same-key collisions are duplicate wake records whose relative
 * order is immaterial (a spurious wake re-checks state and no-ops).
 *
 * Around every escape the engine attributes the Python side reads
 * (``now``, ``_cs``, ``_seq``) are written out, and ``_seq`` is read
 * back afterwards, mirroring the nonlocal sync in the Python loop.
 * ``KernelEngine._push`` routes cold-path pushes (schedule/schedule_at,
 * NIC sends, fault drains) into this heap, so re-entrant scheduling
 * from inside an escape lands in the same queue.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <time.h>

/* Event opcodes -- must match repro/sim/vec/engine.py. */
enum {
    OP_RECV = 0,
    OP_ENTER = 1,
    OP_PWAKE = 2,
    OP_DELIVER = 3,
    OP_NWAKE = 4,
    OP_GEN = 5,
    OP_CALL = 6,
    OP_COUNT = 7
};

/* Python-escape slots for the --profile split. */
enum { ESC_MAKE = 0, ESC_DELIVER = 1, ESC_CALL = 2, ESC_DIVERT = 3,
       ESC_FLUSH = 4, ESC_N = 5 };

/* Fast-path counters (per-packet work kept fully in C). */
enum { FAST_MAKE = 0, FAST_DELIVER = 1, FAST_N = 2 };

typedef struct {
    double t;
    long long seq;
    int op;
    long a, b, c;
    PyObject *fn;   /* OP_CALL only: callable (owned) */
    PyObject *args; /* OP_CALL only: argument tuple (owned) */
} Event;

/* -- MT19937: a bit-exact replica of CPython's random.Random core ---------
 *
 * The route fast path must consume the *same* draw stream as the
 * routing algorithms' ``random.Random`` instances: the engines'
 * bit-identity contract pins every selection to the shared seeded
 * stream, and escapes (scheduled CALLs that submit traffic) keep
 * drawing from the Python objects mid-run.  So the generator state is
 * *imported* from ``Random.getstate()`` at run start, advanced here
 * with the reference Mersenne Twister recurrence and CPython's exact
 * ``getrandbits``/``_randbelow`` derivations, and *exported* back via
 * ``Random.setstate()`` at run end and around every escape that can
 * reach the Python RNG (see ``KernelEngine._nic_try_send``).  The
 * tempering constants and the rejection loop below must match
 * Modules/_randommodule.c and Lib/random.py draw for draw --
 * tests/test_kernel_rng_parity.py asserts it per draw site.
 */

#define MT_N 624
#define MT_M 397
#define MT_MATRIX_A 0x9908b0dfUL
#define MT_UPPER_MASK 0x80000000UL
#define MT_LOWER_MASK 0x7fffffffUL

typedef struct {
    uint32_t mt[MT_N];
    int mti;
    PyObject *obj;   /* the random.Random instance (owned while imported) */
    PyObject *gauss; /* getstate()'s third element, round-tripped (owned) */
} CRng;

static uint32_t
mt_next(CRng *r)
{
    uint32_t y;
    static const uint32_t mag01[2] = {0x0UL, MT_MATRIX_A};
    uint32_t *mt = r->mt;
    if (r->mti >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & MT_UPPER_MASK) | (mt[kk + 1] & MT_LOWER_MASK);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1UL];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & MT_UPPER_MASK) | (mt[kk + 1] & MT_LOWER_MASK);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1UL];
        }
        y = (mt[MT_N - 1] & MT_UPPER_MASK) | (mt[0] & MT_LOWER_MASK);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1UL];
        r->mti = 0;
    }
    y = mt[r->mti++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680UL;
    y ^= (y << 15) & 0xefc60000UL;
    y ^= (y >> 18);
    return y;
}

/* random.getrandbits(k) for 0 < k <= 32. */
static inline uint32_t
mt_getrandbits(CRng *r, int k)
{
    return mt_next(r) >> (32 - k);
}

/* Random._randbelow_with_getrandbits(n): k = n.bit_length() bits,
 * rejection-sampled.  Same draw count as the Python wrapper, including
 * the (never hot) n == 1 case that still consumes draws. */
static long
mt_randbelow(CRng *r, long n)
{
    if (n <= 0)
        return 0; /* matches `if not n: return 0` (no draw) */
    int k = 0;
    unsigned long un = (unsigned long)n;
    while (un) {
        un >>= 1;
        k += 1;
    }
    uint32_t v = mt_getrandbits(r, k);
    while ((long)v >= n)
        v = mt_getrandbits(r, k);
    return (long)v;
}

typedef struct {
    PyObject_HEAD
    Event *heap;
    Py_ssize_t size, cap;
    /* --profile accounting (escape split vs in-kernel events) */
    unsigned long long op_counts[OP_COUNT];
    unsigned long long esc_counts[ESC_N];
    double esc_ns[ESC_N];
    unsigned long long fast_counts[FAST_N];
    double run_ns;
    unsigned long long runs;
    /* Route-fast-path residency: while a run with in-C routing is
     * active, the routing RNG streams and the packet-id counter live
     * here; ``handoff_out``/``handoff_in`` (called by the engine's
     * ``_nic_try_send`` wrapper around mid-run Python sends) and the
     * run-end sync keep the Python objects coherent. */
    CRng rng[2];
    int rng_n;
    int resident;
    long long pid;      /* C-resident Network._pid */
    PyObject *net;      /* owned while resident (for _pid handoff) */
} Kernel;

/* Interned attribute names / deque method descriptors (module init). */
static PyObject *str_now, *str_cs, *str_seq, *str_events_executed;
static PyObject *str_st, *str_net, *str_deliver, *str_nic_try_send;
static PyObject *str_fault_manager, *str_divert_tail;
static PyObject *str_fp, *str_pid, *str_tracer, *str_msg_track;
static PyObject *str_delivery_listeners;
static PyObject *str_routers, *str_ports, *str_vcs, *str_kind;
static PyObject *str_send_time, *str_eject_time, *str_dst_node;
static PyObject *str_size, *str_gen_time;
static PyObject *m_popleft, *m_append, *m_rotate; /* deque unbound methods */

static double
mono_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec * 1e9 + (double)ts.tv_nsec;
}

/* -- random.Random state handoff ------------------------------------------ */

/* Pull the MT state out of ``r->obj`` (a random.Random) so the fast
 * path can continue its draw stream in C.  ``r->obj`` must already be
 * set (owned); fills mt/mti and stashes the gauss element verbatim. */
static int
crng_import(CRng *r)
{
    PyObject *state = PyObject_CallMethod(r->obj, "getstate", NULL);
    if (state == NULL)
        return -1;
    PyObject *inner = NULL;
    int ok = 0;
    if (PyTuple_Check(state) && PyTuple_GET_SIZE(state) == 3) {
        long version = PyLong_AsLong(PyTuple_GET_ITEM(state, 0));
        if (version == -1 && PyErr_Occurred())
            PyErr_Clear();
        inner = PyTuple_GET_ITEM(state, 1);
        if (version == 3 && PyTuple_Check(inner) &&
            PyTuple_GET_SIZE(inner) == MT_N + 1)
            ok = 1;
    }
    if (!ok) {
        Py_DECREF(state);
        PyErr_SetString(PyExc_RuntimeError,
                        "kernel: unsupported random.Random state format");
        return -1;
    }
    for (int i = 0; i < MT_N; i++) {
        unsigned long w = PyLong_AsUnsignedLong(PyTuple_GET_ITEM(inner, i));
        if (w == (unsigned long)-1 && PyErr_Occurred()) {
            Py_DECREF(state);
            return -1;
        }
        r->mt[i] = (uint32_t)w;
    }
    long mti = PyLong_AsLong(PyTuple_GET_ITEM(inner, MT_N));
    if (mti == -1 && PyErr_Occurred()) {
        Py_DECREF(state);
        return -1;
    }
    r->mti = (int)mti;
    Py_XDECREF(r->gauss);
    r->gauss = PyTuple_GET_ITEM(state, 2);
    Py_INCREF(r->gauss);
    Py_DECREF(state);
    return 0;
}

/* Push the (possibly advanced) MT state back into ``r->obj`` via
 * setstate, so Python-side draws resume exactly where C stopped. */
static int
crng_export(CRng *r)
{
    PyObject *inner = PyTuple_New(MT_N + 1);
    if (inner == NULL)
        return -1;
    for (int i = 0; i < MT_N; i++) {
        PyObject *w = PyLong_FromUnsignedLong((unsigned long)r->mt[i]);
        if (w == NULL) {
            Py_DECREF(inner);
            return -1;
        }
        PyTuple_SET_ITEM(inner, i, w);
    }
    PyObject *w = PyLong_FromLong((long)r->mti);
    if (w == NULL) {
        Py_DECREF(inner);
        return -1;
    }
    PyTuple_SET_ITEM(inner, MT_N, w);
    PyObject *state = Py_BuildValue("(lNO)", 3L, inner,
                                    r->gauss ? r->gauss : Py_None);
    if (state == NULL)
        return -1;
    /* "(O)": a bare "O" would splat the state tuple as the arg list. */
    PyObject *res = PyObject_CallMethod(r->obj, "setstate", "(O)", state);
    Py_DECREF(state);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

static void
crng_drop(CRng *r)
{
    Py_CLEAR(r->obj);
    Py_CLEAR(r->gauss);
}

/* -- binary heap ---------------------------------------------------------- */

static inline int
ev_lt(const Event *x, const Event *y)
{
    return x->t < y->t || (x->t == y->t && x->seq < y->seq);
}

static int
heap_push_ev(Kernel *k, Event ev)
{
    if (k->size >= k->cap) {
        Py_ssize_t ncap = k->cap ? k->cap * 2 : 1024;
        Event *nh = (Event *)PyMem_Realloc(k->heap, (size_t)ncap * sizeof(Event));
        if (nh == NULL) {
            Py_XDECREF(ev.fn);
            Py_XDECREF(ev.args);
            PyErr_NoMemory();
            return -1;
        }
        k->heap = nh;
        k->cap = ncap;
    }
    Event *h = k->heap;
    Py_ssize_t i = k->size++;
    while (i > 0) {
        Py_ssize_t p = (i - 1) >> 1;
        if (ev_lt(&ev, &h[p])) {
            h[i] = h[p];
            i = p;
        } else {
            break;
        }
    }
    h[i] = ev;
    return 0;
}

static Event
heap_pop_ev(Kernel *k)
{
    Event *h = k->heap;
    Event top = h[0];
    Event last = h[--k->size];
    Py_ssize_t n = k->size;
    Py_ssize_t i = 0;
    for (;;) {
        Py_ssize_t l = 2 * i + 1;
        if (l >= n)
            break;
        if (l + 1 < n && ev_lt(&h[l + 1], &h[l]))
            l += 1;
        if (ev_lt(&h[l], &last)) {
            h[i] = h[l];
            i = l;
        } else {
            break;
        }
    }
    if (n > 0)
        h[i] = last;
    return top;
}

static int
kpush(Kernel *k, double t, long long seq, int op, long a, long b, long c)
{
    Event ev = {t, seq, op, a, b, c, NULL, NULL};
    return heap_push_ev(k, ev);
}

/* -- SoA list / deque accessors ------------------------------------------- */

static inline long
ivald(PyObject *list, long i)
{
    return PyLong_AsLong(PyList_GET_ITEM(list, (Py_ssize_t)i));
}

static inline long long
llval(PyObject *list, long i)
{
    return PyLong_AsLongLong(PyList_GET_ITEM(list, (Py_ssize_t)i));
}

static inline double
fval(PyObject *list, long i)
{
    return PyFloat_AsDouble(PyList_GET_ITEM(list, (Py_ssize_t)i));
}

static inline int
iset(PyObject *list, long i, long v)
{
    PyObject *o = PyLong_FromLong(v);
    if (o == NULL)
        return -1;
    PyObject *old = PyList_GET_ITEM(list, (Py_ssize_t)i);
    PyList_SET_ITEM(list, (Py_ssize_t)i, o);
    Py_DECREF(old);
    return 0;
}

static inline int
llset(PyObject *list, long i, long long v)
{
    PyObject *o = PyLong_FromLongLong(v);
    if (o == NULL)
        return -1;
    PyObject *old = PyList_GET_ITEM(list, (Py_ssize_t)i);
    PyList_SET_ITEM(list, (Py_ssize_t)i, o);
    Py_DECREF(old);
    return 0;
}

static inline int
fset(PyObject *list, long i, double v)
{
    PyObject *o = PyFloat_FromDouble(v);
    if (o == NULL)
        return -1;
    PyObject *old = PyList_GET_ITEM(list, (Py_ssize_t)i);
    PyList_SET_ITEM(list, (Py_ssize_t)i, o);
    Py_DECREF(old);
    return 0;
}

static inline void
bset(PyObject *list, long i, int v)
{
    PyObject *o = v ? Py_True : Py_False;
    Py_INCREF(o);
    PyObject *old = PyList_GET_ITEM(list, (Py_ssize_t)i);
    PyList_SET_ITEM(list, (Py_ssize_t)i, o);
    Py_DECREF(old);
}

static inline Py_ssize_t
dq_len(PyObject *dq)
{
    return PyObject_Size(dq);
}

static inline PyObject *
dq_popleft(PyObject *dq)
{
    return PyObject_CallOneArg(m_popleft, dq);
}

/* Append *item* (stealing the reference; item may be NULL to propagate
 * an allocation error). */
static inline int
dq_append_steal(PyObject *dq, PyObject *item)
{
    if (item == NULL)
        return -1;
    PyObject *argv[2] = {dq, item};
    PyObject *r = PyObject_Vectorcall(m_append, argv, 2, NULL);
    Py_DECREF(item);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* First element of a deque of (float, int) key tuples. */
static inline int
dq_first_key(PyObject *dq, double *t, long long *s)
{
    PyObject *it = PySequence_GetItem(dq, 0);
    if (it == NULL)
        return -1;
    *t = PyFloat_AsDouble(PyTuple_GET_ITEM(it, 0));
    *s = PyLong_AsLongLong(PyTuple_GET_ITEM(it, 1));
    Py_DECREF(it);
    return 0;
}

/* -- run context ---------------------------------------------------------- */

/* SoAState lists the handlers touch, in declaration order. */
#define CTX_LISTS(X)                                                      \
    X(in_pbase) X(in_up_port) X(in_up_node)                               \
    X(p_busy_t) X(p_busy_s) X(p_wake) X(p_queued) X(p_rr) X(p_sent)       \
    X(p_oqtot) X(p_pend) X(p_dest_in) X(p_has_cred) X(p_dead)             \
    X(pv_oq) X(pv_occ) X(pv_cred) X(pv_arr) X(iv_q)                       \
    X(n_q) X(n_src) X(n_cred) X(n_arr) X(n_busy_t) X(n_busy_s)            \
    X(n_wake) X(n_qp) X(n_in) X(n_rid) X(n_stalls)                        \
    X(k_ports) X(k_vcs) X(k_hop) X(k_obj)                                 \
    X(g_t) X(g_d) X(g_i) X(row_port)

typedef struct {
    Kernel *k;
    PyObject *eng;
    PyObject *nic_send;  /* bound eng._nic_try_send */
    PyObject *deliver;   /* bound net.deliver (checker-wrapped if any) */
    PyObject *fm_divert; /* bound fault_manager.divert_tail, or NULL */
#define X(name) PyObject *name;
    CTX_LISTS(X)
#undef X
    long V, OQ_CAP, PKTB;
    double SER, LINK, SWITCH, SL;
    long long seq;

    /* -- fast-path bindings (from eng._fp; see KernelEngine) -------------- */
    int route_mode;       /* -1 off, 0 min-rand, 1 min-best, 2 INR, 3 UGAL */
    int deliver_fast;     /* 1 = accumulate delivery stats in C */
    long NR, NN;
    PyObject *net;        /* borrowed from Kernel_run locals */
    CRng *rng0, *rng1;    /* resident draw streams (into k->rng) */
    /* route selection */
    PyObject *packet_cls; /* Packet class */
    PyObject *eject_ports;
    PyObject *min_rows, *leg_rows, *composed, *selfs;
    PyObject *minimal_fill, *leg_fill, *compose, *compose_or_none;
    PyObject *self_route;
    PyObject *pool;
    long npool, nI;
    int sf_mode, has_thr;
    double cc, c_sf, thr_cap;
    /* delivery accounting */
    PyObject *stats_absorb; /* bound StatsCollector.absorb_kernel */
    double win_start, win_end;
    int win_has_end;
    int stats_dirty;
    long long a_inj, a_inj_w, a_ej, a_ej_w, a_bytes, a_hops;
    double a_first, a_last;
    int a_has_first, a_has_last;
    double *a_lat;
    Py_ssize_t a_lat_n, a_lat_cap;
    long long *a_ejcnt;   /* length NN, or NULL when deliver fast is off */
    PyObject *a_kinds;    /* str -> int counter dict */
} Ctx;

/* Write eng.now / eng._cs (optional) / eng._seq before an escape. */
static int
sync_out(Ctx *c, double t, long long s, int set_cs)
{
    PyObject *v = PyFloat_FromDouble(t);
    if (v == NULL || PyObject_SetAttr(c->eng, str_now, v) < 0) {
        Py_XDECREF(v);
        return -1;
    }
    Py_DECREF(v);
    if (set_cs) {
        v = PyLong_FromLongLong(s);
        if (v == NULL || PyObject_SetAttr(c->eng, str_cs, v) < 0) {
            Py_XDECREF(v);
            return -1;
        }
        Py_DECREF(v);
    }
    v = PyLong_FromLongLong(c->seq);
    if (v == NULL || PyObject_SetAttr(c->eng, str_seq, v) < 0) {
        Py_XDECREF(v);
        return -1;
    }
    Py_DECREF(v);
    return 0;
}

/* Read eng._seq back after an escape (the callback may have scheduled). */
static int
sync_in(Ctx *c)
{
    PyObject *v = PyObject_GetAttr(c->eng, str_seq);
    if (v == NULL)
        return -1;
    c->seq = PyLong_AsLongLong(v);
    Py_DECREF(v);
    if (c->seq == -1 && PyErr_Occurred())
        return -1;
    return 0;
}

/* Escape: eng._nic_try_send(node, t, s).  Mirrors the GEN/NWAKE escape
 * in the Python loop, which syncs now/_seq (not _cs) around the call. */
static int
escape_nic_send(Ctx *c, long node, double t, long long s)
{
    if (sync_out(c, t, s, 0) < 0)
        return -1;
    double t0 = mono_ns();
    PyObject *r = PyObject_CallFunction(c->nic_send, "ldL", node, t, s);
    c->k->esc_ns[ESC_MAKE] += mono_ns() - t0;
    c->k->esc_counts[ESC_MAKE] += 1;
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return sync_in(c);
}

/* -- fast-path: stats accumulation ---------------------------------------- */

/* Flush the C-side inject/eject accumulators into the Python
 * StatsCollector (absorb_kernel).  Called lazily: before any escape
 * that could observe the collector mid-run (deliver/CALL/divert) and
 * at run end.  Resets the accumulators on success. */
static int
stats_flush(Ctx *c)
{
    if (!c->stats_dirty)
        return 0;
    double t0 = mono_ns();
    PyObject *lat = NULL, *first = NULL, *last = NULL, *ejcnt = NULL;
    PyObject *res = NULL;
    int rc = -1;

    lat = PyList_New(c->a_lat_n);
    if (lat == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < c->a_lat_n; i++) {
        PyObject *f = PyFloat_FromDouble(c->a_lat[i]);
        if (f == NULL)
            goto done;
        PyList_SET_ITEM(lat, i, f);
    }
    if (c->a_has_first) {
        first = PyFloat_FromDouble(c->a_first);
    } else {
        first = Py_None;
        Py_INCREF(first);
    }
    if (first == NULL)
        goto done;
    if (c->a_has_last) {
        last = PyFloat_FromDouble(c->a_last);
    } else {
        last = Py_None;
        Py_INCREF(last);
    }
    if (last == NULL)
        goto done;
    if (c->a_ej > 0 && c->a_ejcnt != NULL) {
        ejcnt = PyList_New((Py_ssize_t)c->NN);
        if (ejcnt == NULL)
            goto done;
        for (long i = 0; i < c->NN; i++) {
            PyObject *v = PyLong_FromLongLong(c->a_ejcnt[i]);
            if (v == NULL)
                goto done;
            PyList_SET_ITEM(ejcnt, (Py_ssize_t)i, v);
        }
    } else {
        ejcnt = Py_None;
        Py_INCREF(ejcnt);
    }
    res = PyObject_CallFunction(
        c->stats_absorb, "LLOLLLLOOOO",
        c->a_inj, c->a_inj_w, first, c->a_ej, c->a_ej_w, c->a_bytes,
        c->a_hops, last, lat, c->a_kinds ? c->a_kinds : Py_None, ejcnt);
    if (res == NULL)
        goto done;
    c->a_inj = c->a_inj_w = c->a_ej = c->a_ej_w = 0;
    c->a_bytes = c->a_hops = 0;
    c->a_has_first = c->a_has_last = 0;
    c->a_lat_n = 0;
    if (c->a_kinds != NULL)
        PyDict_Clear(c->a_kinds);
    if (c->a_ejcnt != NULL)
        memset(c->a_ejcnt, 0, (size_t)c->NN * sizeof(long long));
    c->stats_dirty = 0;
    rc = 0;
done:
    Py_XDECREF(res);
    Py_XDECREF(ejcnt);
    Py_XDECREF(last);
    Py_XDECREF(first);
    Py_XDECREF(lat);
    c->k->esc_ns[ESC_FLUSH] += mono_ns() - t0;
    c->k->esc_counts[ESC_FLUSH] += 1;
    return rc;
}

static int
lat_push(Ctx *c, double v)
{
    if (c->a_lat_n >= c->a_lat_cap) {
        Py_ssize_t ncap = c->a_lat_cap ? c->a_lat_cap * 2 : 4096;
        double *nl = (double *)PyMem_Realloc(c->a_lat,
                                             (size_t)ncap * sizeof(double));
        if (nl == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        c->a_lat = nl;
        c->a_lat_cap = ncap;
    }
    c->a_lat[c->a_lat_n++] = v;
    return 0;
}

static int
kind_incr(Ctx *c, PyObject *kind)
{
    PyObject *cur = PyDict_GetItemWithError(c->a_kinds, kind);
    if (cur == NULL && PyErr_Occurred())
        return -1;
    PyObject *nv = PyLong_FromLong(cur ? PyLong_AsLong(cur) + 1 : 1);
    if (nv == NULL)
        return -1;
    int rc = PyDict_SetItem(c->a_kinds, kind, nv);
    Py_DECREF(nv);
    return rc;
}

/* Re-check the deliver-fast preconditions after an escape that ran
 * arbitrary Python (CALL, divert): a callback may have attached a
 * tracer / delivery listener / message tracker mid-run.  Disable-only:
 * once off it stays off for the rest of the run (re-enabling would
 * need a flush fence for no measurable gain). */
static int
refresh_deliver_fast(Ctx *c)
{
    if (!c->deliver_fast)
        return 0;
    int ok = 1;
    PyObject *v = PyObject_GetAttr(c->net, str_tracer);
    if (v == NULL)
        return -1;
    if (v != Py_None)
        ok = 0;
    Py_DECREF(v);
    if (ok) {
        v = PyObject_GetAttr(c->net, str_msg_track);
        if (v == NULL)
            return -1;
        if (v != Py_None)
            ok = 0;
        Py_DECREF(v);
    }
    if (ok) {
        v = PyObject_GetAttr(c->net, str_delivery_listeners);
        if (v == NULL)
            return -1;
        Py_ssize_t n = PyObject_Size(v);
        Py_DECREF(v);
        if (n < 0)
            return -1;
        if (n > 0)
            ok = 0;
    }
    if (!ok) {
        if (stats_flush(c) < 0)
            return -1;
        c->deliver_fast = 0;
    }
    return 0;
}

/* -- fast-path: route selection ------------------------------------------- */

/* Output-queue depth at router *u*'s port toward *v* (RouteCache's
 * flat row_port gid table + live p_queued), as queue_len() computes. */
static inline long
fp_qlen(Ctx *c, long u, long v)
{
    long gid = ivald(c->row_port, u * c->NR + v);
    return ivald(c->p_queued, gid);
}

/* Minimal candidate tuple for (sr, dr): memo row hit or cold
 * minimal_fill call (BFS refill under faults; no RNG draws).  New ref. */
static PyObject *
fp_min_candidates(Ctx *c, long sr, long dr)
{
    PyObject *row = PyList_GET_ITEM(c->min_rows, (Py_ssize_t)sr);
    if (row != Py_None) {
        PyObject *cands = PyList_GET_ITEM(row, (Py_ssize_t)dr);
        if (cands != Py_None) {
            Py_INCREF(cands);
            return cands;
        }
    }
    return PyObject_CallFunction(c->minimal_fill, "ll", sr, dr);
}

/* Same for the Valiant leg table. */
static PyObject *
fp_leg_candidates(Ctx *c, long a, long b)
{
    PyObject *row = PyList_GET_ITEM(c->leg_rows, (Py_ssize_t)a);
    if (row != Py_None) {
        PyObject *cands = PyList_GET_ITEM(row, (Py_ssize_t)b);
        if (cands != Py_None) {
            Py_INCREF(cands);
            return cands;
        }
    }
    return PyObject_CallFunction(c->leg_fill, "ll", a, b);
}

/* One leg pick: single candidate or a randbelow draw on *rng*. */
static PyObject *
fp_pick_leg(Ctx *c, long a, long b, CRng *rng)
{
    PyObject *cands = fp_leg_candidates(c, a, b);
    if (cands == NULL)
        return NULL;
    Py_ssize_t n = PyTuple_GET_SIZE(cands);
    PyObject *leg = PyTuple_GET_ITEM(
        cands, n == 1 ? 0 : (Py_ssize_t)mt_randbelow(rng, (long)n));
    Py_INCREF(leg);
    Py_DECREF(cands);
    return leg;
}

/* Rejection-sample an intermediate router != src, dst (the Python
 * loop in IndirectRandomRouting/UGALRouting._pick_intermediate). */
static inline long
fp_pick_intermediate(Ctx *c, long sr, long dr, CRng *rng)
{
    for (;;) {
        long i = mt_randbelow(rng, c->npool);
        long inter = PyLong_AsLong(PyList_GET_ITEM(c->pool, (Py_ssize_t)i));
        if (inter != sr && inter != dr)
            return inter;
    }
}

/* Composed-route memo probe.  *out gets a new ref on hit, NULL on
 * miss; returns -1 only on error. */
static int
fp_composed_lookup(Ctx *c, PyObject *first, PyObject *second, PyObject **out)
{
    PyObject *key = PyTuple_Pack(2, first, second);
    if (key == NULL)
        return -1;
    PyObject *r = PyDict_GetItemWithError(c->composed, key);
    Py_DECREF(key);
    if (r != NULL) {
        Py_INCREF(r);
        *out = r;
        return 0;
    }
    if (PyErr_Occurred())
        return -1;
    *out = NULL;
    return 0;
}

/* MinimalRouting.route (compiled): random selection draws on *rng*,
 * best selection scans for the first strict queue-length minimum. */
static PyObject *
fp_route_minimal(Ctx *c, long sr, long dr, CRng *rng, int best)
{
    PyObject *cands = fp_min_candidates(c, sr, dr);
    if (cands == NULL)
        return NULL;
    Py_ssize_t n = PyTuple_GET_SIZE(cands);
    PyObject *route = NULL;
    if (n == 1) {
        route = PyTuple_GET_ITEM(cands, 0);
        Py_INCREF(route);
    } else if (!best) {
        route = PyTuple_GET_ITEM(cands,
                                 (Py_ssize_t)mt_randbelow(rng, (long)n));
        Py_INCREF(route);
    } else {
        long best_q = 0;
        for (Py_ssize_t i = 0; i < n; i++) {
            PyObject *cand = PyTuple_GET_ITEM(cands, i);
            PyObject *routers = PyObject_GetAttr(cand, str_routers);
            if (routers == NULL) {
                Py_XDECREF(route);
                Py_DECREF(cands);
                return NULL;
            }
            long q = 0;
            if (PyTuple_GET_SIZE(routers) > 1) {
                long r0 = PyLong_AsLong(PyTuple_GET_ITEM(routers, 0));
                long r1 = PyLong_AsLong(PyTuple_GET_ITEM(routers, 1));
                q = fp_qlen(c, r0, r1);
            }
            Py_DECREF(routers);
            if (route == NULL || q < best_q) {
                Py_XDECREF(route);
                route = cand;
                Py_INCREF(route);
                best_q = q;
            }
        }
    }
    Py_DECREF(cands);
    return route;
}

/* IndirectRandomRouting.route (compiled).  NoRouteError from compose
 * propagates, exactly as in Python. */
static PyObject *
fp_route_inr(Ctx *c, long sr, long dr)
{
    if (sr == dr) {
        PyObject *key = PyLong_FromLong(sr);
        if (key == NULL)
            return NULL;
        PyObject *r = PyDict_GetItemWithError(c->selfs, key);
        Py_DECREF(key);
        if (r != NULL) {
            Py_INCREF(r);
            return r;
        }
        if (PyErr_Occurred())
            return NULL;
        return PyObject_CallFunction(c->self_route, "l", sr);
    }
    long inter = fp_pick_intermediate(c, sr, dr, c->rng0);
    PyObject *first = fp_pick_leg(c, sr, inter, c->rng0);
    if (first == NULL)
        return NULL;
    PyObject *second = fp_pick_leg(c, inter, dr, c->rng0);
    if (second == NULL) {
        Py_DECREF(first);
        return NULL;
    }
    PyObject *route = NULL;
    if (fp_composed_lookup(c, first, second, &route) < 0) {
        Py_DECREF(first);
        Py_DECREF(second);
        return NULL;
    }
    if (route == NULL)
        route = PyObject_CallFunctionObjArgs(c->compose, first, second, NULL);
    Py_DECREF(first);
    Py_DECREF(second);
    return route;
}

/* UGALRouting.route, local variant with random minimal selection
 * (compiled): minimal pick on rng0, indirect scoring draws on rng1,
 * strict cost comparison (ties go minimal), VC-overflow on the winning
 * indirect pair falls back to minimal via compose_or_none. */
static PyObject *
fp_route_ugal(Ctx *c, long sr, long dr)
{
    PyObject *minimal = fp_route_minimal(c, sr, dr, c->rng0, 0);
    if (minimal == NULL)
        return NULL;
    PyObject *routers = PyObject_GetAttr(minimal, str_routers);
    if (routers == NULL) {
        Py_DECREF(minimal);
        return NULL;
    }
    long len_min = (long)PyTuple_GET_SIZE(routers) - 1;
    long q_min = 0;
    if (len_min > 0) {
        long r0 = PyLong_AsLong(PyTuple_GET_ITEM(routers, 0));
        long r1 = PyLong_AsLong(PyTuple_GET_ITEM(routers, 1));
        q_min = fp_qlen(c, r0, r1);
    }
    Py_DECREF(routers);
    if (len_min == 0)
        return minimal; /* self-pair: nothing to adapt */
    if (c->has_thr && (double)q_min < c->thr_cap)
        return minimal;
    double best_cost = (double)q_min;
    PyObject *best_first = NULL, *best_second = NULL;
    for (long it = 0; it < c->nI; it++) {
        long inter = fp_pick_intermediate(c, sr, dr, c->rng1);
        PyObject *first = fp_pick_leg(c, sr, inter, c->rng1);
        if (first == NULL)
            goto err;
        PyObject *second = fp_pick_leg(c, inter, dr, c->rng1);
        if (second == NULL) {
            Py_DECREF(first);
            goto err;
        }
        long f0 = PyLong_AsLong(PyTuple_GET_ITEM(first, 0));
        long f1 = PyLong_AsLong(PyTuple_GET_ITEM(first, 1));
        long q_ind = fp_qlen(c, f0, f1);
        double cost;
        if (c->sf_mode) {
            long hops = (long)(PyTuple_GET_SIZE(first) +
                               PyTuple_GET_SIZE(second)) - 2;
            /* Same association as the Python scoring expression so the
             * doubles are bit-identical. */
            cost = (((double)hops / (double)len_min) * c->c_sf) *
                   (double)q_ind;
        } else {
            cost = c->cc * (double)q_ind;
        }
        if (cost < best_cost) {
            best_cost = cost;
            Py_XDECREF(best_first);
            Py_XDECREF(best_second);
            best_first = first;
            best_second = second;
        } else {
            Py_DECREF(first);
            Py_DECREF(second);
        }
    }
    if (best_first == NULL)
        return minimal;
    {
        PyObject *route = NULL;
        if (fp_composed_lookup(c, best_first, best_second, &route) < 0)
            goto err;
        if (route == NULL) {
            route = PyObject_CallFunctionObjArgs(
                c->compose_or_none, best_first, best_second, NULL);
            if (route == NULL)
                goto err;
            if (route == Py_None) {
                Py_DECREF(route);
                route = NULL;
            }
        }
        Py_DECREF(best_first);
        Py_DECREF(best_second);
        if (route == NULL)
            return minimal; /* degraded pair: VC overflow -> minimal */
        Py_DECREF(minimal);
        return route;
    }
err:
    Py_XDECREF(best_first);
    Py_XDECREF(best_second);
    Py_DECREF(minimal);
    return NULL;
}

/* -- fast-path: in-C NIC send (BatchedEngine._nic_try_send port) ----------- */

static int
fast_nic_send(Ctx *c, long node, double t, long long s)
{
    Kernel *k = c->k;
    long cred = ivald(c->n_cred, node);
    PyObject *arr = PyList_GET_ITEM(c->n_arr, (Py_ssize_t)node);
    if (cred <= 0 && dq_len(arr) > 0) {
        while (dq_len(arr) > 0) {
            double at;
            long long as;
            if (dq_first_key(arr, &at, &as) < 0)
                return -1;
            if (at < t || (at == t && as <= s)) {
                PyObject *p = dq_popleft(arr);
                if (p == NULL)
                    return -1;
                Py_DECREF(p);
                cred += 1;
            } else {
                break;
            }
        }
        if (iset(c->n_cred, node, cred) < 0)
            return -1;
    }
    PyObject *q = PyList_GET_ITEM(c->n_q, (Py_ssize_t)node);
    if (cred <= 0) {
        if (dq_len(q) > 0 ||
            PyList_GET_ITEM(c->n_src, (Py_ssize_t)node) != Py_None) {
            if (iset(c->n_stalls, node, ivald(c->n_stalls, node) + 1) < 0)
                return -1;
            if (dq_len(arr) > 0) {
                double at;
                long long as;
                if (dq_first_key(arr, &at, &as) < 0)
                    return -1;
                if (kpush(k, at, as, OP_NWAKE, node, 0, 0) < 0)
                    return -1;
            }
        }
        return 0;
    }

    /* Next descriptor: queued record or pull from the source iterator. */
    PyObject *dsto = NULL, *sizeo = NULL, *mido = NULL, *geno = NULL;
    PyObject *route = NULL, *routers = NULL, *rports = NULL, *rvcs = NULL;
    PyObject *kind = NULL, *ports_full = NULL, *vcs_pad = NULL;
    PyObject *pkt = NULL;
    int rc = -1;

    if (dq_len(q) > 0) {
        PyObject *rec = dq_popleft(q);
        if (rec == NULL)
            return -1;
        if (!PyTuple_Check(rec) || PyTuple_GET_SIZE(rec) != 4) {
            Py_DECREF(rec);
            PyErr_SetString(PyExc_TypeError,
                            "kernel: NIC queue record is not a 4-tuple");
            return -1;
        }
        dsto = PyTuple_GET_ITEM(rec, 0);
        sizeo = PyTuple_GET_ITEM(rec, 1);
        mido = PyTuple_GET_ITEM(rec, 2);
        geno = PyTuple_GET_ITEM(rec, 3);
        Py_INCREF(dsto);
        Py_INCREF(sizeo);
        Py_INCREF(mido);
        Py_INCREF(geno);
        Py_DECREF(rec);
        if (iset(c->n_qp, node, ivald(c->n_qp, node) - 1) < 0)
            goto done;
    } else {
        PyObject *srco = PyList_GET_ITEM(c->n_src, (Py_ssize_t)node);
        if (srco == Py_None)
            return 0;
        PyObject *d = PyIter_Next(srco);
        if (d == NULL) {
            if (PyErr_Occurred())
                return -1;
            /* StopIteration: source exhausted. */
            Py_INCREF(Py_None);
            PyObject *old = PyList_GET_ITEM(c->n_src, (Py_ssize_t)node);
            PyList_SET_ITEM(c->n_src, (Py_ssize_t)node, Py_None);
            Py_DECREF(old);
            return 0;
        }
        PyObject *fast3 = PySequence_Fast(
            d, "kernel: NIC source yielded a non-sequence");
        Py_DECREF(d);
        if (fast3 == NULL)
            return -1;
        if (PySequence_Fast_GET_SIZE(fast3) != 3) {
            Py_DECREF(fast3);
            PyErr_SetString(PyExc_ValueError,
                            "kernel: NIC source descriptor is not a 3-tuple");
            return -1;
        }
        dsto = PySequence_Fast_GET_ITEM(fast3, 0);
        sizeo = PySequence_Fast_GET_ITEM(fast3, 1);
        mido = PySequence_Fast_GET_ITEM(fast3, 2);
        Py_INCREF(dsto);
        Py_INCREF(sizeo);
        Py_INCREF(mido);
        Py_DECREF(fast3);
        geno = PyFloat_FromDouble(t);
        if (geno == NULL)
            goto done;
    }

    {
        long dst_node = PyLong_AsLong(dsto);
        if (dst_node == -1 && PyErr_Occurred())
            goto done;
        long sr = ivald(c->n_rid, node);
        long dr = ivald(c->n_rid, dst_node);
        switch (c->route_mode) {
        case 0:
            route = fp_route_minimal(c, sr, dr, c->rng0, 0);
            break;
        case 1:
            route = fp_route_minimal(c, sr, dr, NULL, 1);
            break;
        case 2:
            route = fp_route_inr(c, sr, dr);
            break;
        default:
            route = fp_route_ugal(c, sr, dr);
            break;
        }
        if (route == NULL)
            goto done;
        routers = PyObject_GetAttr(route, str_routers);
        if (routers == NULL)
            goto done;
        rports = PyObject_GetAttr(route, str_ports);
        if (rports == NULL)
            goto done;
        rvcs = PyObject_GetAttr(route, str_vcs);
        if (rvcs == NULL)
            goto done;
        kind = PyObject_GetAttr(route, str_kind);
        if (kind == NULL)
            goto done;
        if (!PyTuple_Check(routers) || !PyTuple_Check(rports) ||
            !PyTuple_Check(rvcs)) {
            PyErr_SetString(PyExc_TypeError,
                            "kernel: route without compiled tuple "
                            "routers/ports/vcs");
            goto done;
        }

        /* ports + (eject,) and vcs + (0,) exactly as Network.make_packet
         * / the SoA append do. */
        Py_ssize_t nh = PyTuple_GET_SIZE(rports);
        ports_full = PyTuple_New(nh + 1);
        if (ports_full == NULL)
            goto done;
        for (Py_ssize_t i = 0; i < nh; i++) {
            PyObject *it = PyTuple_GET_ITEM(rports, i);
            Py_INCREF(it);
            PyTuple_SET_ITEM(ports_full, i, it);
        }
        {
            PyObject *ej = PyList_GET_ITEM(c->eject_ports,
                                           (Py_ssize_t)dst_node);
            Py_INCREF(ej);
            PyTuple_SET_ITEM(ports_full, nh, ej);
        }
        Py_ssize_t nv = PyTuple_GET_SIZE(rvcs);
        vcs_pad = PyTuple_New(nv + 1);
        if (vcs_pad == NULL)
            goto done;
        for (Py_ssize_t i = 0; i < nv; i++) {
            PyObject *it = PyTuple_GET_ITEM(rvcs, i);
            Py_INCREF(it);
            PyTuple_SET_ITEM(vcs_pad, i, it);
        }
        {
            PyObject *zero = PyLong_FromLong(0);
            if (zero == NULL)
                goto done;
            PyTuple_SET_ITEM(vcs_pad, nv, zero);
        }

        k->pid += 1;
        {
            PyObject *pido = PyLong_FromLongLong(k->pid);
            PyObject *srcn = pido ? PyLong_FromLong(node) : NULL;
            if (srcn == NULL) {
                Py_XDECREF(pido);
                goto done;
            }
            PyObject *argv[10] = {pido, srcn, dsto, sizeo, routers,
                                  ports_full, rvcs, kind, geno, mido};
            pkt = PyObject_Vectorcall(c->packet_cls, argv, 10, NULL);
            Py_DECREF(pido);
            Py_DECREF(srcn);
            if (pkt == NULL)
                goto done;
        }
        {
            PyObject *tf = PyFloat_FromDouble(t);
            if (tf == NULL)
                goto done;
            if (PyObject_SetAttr(pkt, str_send_time, tf) < 0) {
                Py_DECREF(tf);
                goto done;
            }
            Py_DECREF(tf);
        }

        /* StatsCollector.record_inject, accumulated C-side. */
        c->a_inj += 1;
        if (!c->a_has_first) {
            c->a_first = t;
            c->a_has_first = 1;
        }
        if (t >= c->win_start && (!c->win_has_end || t < c->win_end))
            c->a_inj_w += 1;
        c->stats_dirty = 1;

        if (PyList_Append(c->k_ports, ports_full) < 0 ||
            PyList_Append(c->k_vcs, vcs_pad) < 0 ||
            PyList_Append(c->k_obj, pkt) < 0)
            goto done;
        {
            PyObject *zero = PyLong_FromLong(0);
            if (zero == NULL)
                goto done;
            int ar = PyList_Append(c->k_hop, zero);
            Py_DECREF(zero);
            if (ar < 0)
                goto done;
        }

        if (iset(c->n_cred, node, cred - 1) < 0)
            goto done;
        c->seq += 1; /* reserved: the elided NIC link-free event */
        {
            double bt = t + c->SER;
            long long bs = c->seq;
            if (fset(c->n_busy_t, node, bt) < 0 ||
                llset(c->n_busy_s, node, bs) < 0)
                goto done;
            c->seq += 1;
            if (kpush(k, t + c->SL, c->seq, OP_RECV,
                      ivald(c->n_in, node), 0, (long)k->pid) < 0)
                goto done;
            if (dq_len(q) > 0 ||
                PyList_GET_ITEM(c->n_src, (Py_ssize_t)node) != Py_None) {
                if (kpush(k, bt, bs, OP_NWAKE, node, 0, 0) < 0)
                    goto done;
                bset(c->n_wake, node, 1);
            } else {
                bset(c->n_wake, node, 0);
            }
        }
        k->fast_counts[FAST_MAKE] += 1;
        rc = 0;
    }

done:
    Py_XDECREF(pkt);
    Py_XDECREF(vcs_pad);
    Py_XDECREF(ports_full);
    Py_XDECREF(kind);
    Py_XDECREF(rvcs);
    Py_XDECREF(rports);
    Py_XDECREF(routers);
    Py_XDECREF(route);
    Py_XDECREF(geno);
    Py_XDECREF(mido);
    Py_XDECREF(sizeo);
    Py_XDECREF(dsto);
    return rc;
}

/* Either NIC-send path, by fast-path residency. */
static inline int
nic_send(Ctx *c, long node, double t, long long s)
{
    if (c->route_mode >= 0)
        return fast_nic_send(c, node, t, s);
    return escape_nic_send(c, node, t, s);
}

/* -- handler helpers (ports of the BatchedEngine.run closures) ------------ */

static int try_transfer(Ctx *c, long in_gid, long vc, double t, long long s);

static int
transfer_one(Ctx *c, long in_gid, long vc, long gid, long pid,
             double t, long long s)
{
    long upp = ivald(c->in_up_port, in_gid);
    if (upp >= 0) {
        c->seq += 1;
        double at = t + c->LINK;
        long upv = upp * c->V + vc;
        PyObject *key = Py_BuildValue("(dL)", at, c->seq);
        if (dq_append_steal(PyList_GET_ITEM(c->pv_arr, upv), key) < 0)
            return -1;
        if (ivald(c->pv_cred, upv) == 0 &&
            dq_len(PyList_GET_ITEM(c->pv_oq, upv)) > 0) {
            double bt = fval(c->p_busy_t, upp);
            long long bs = llval(c->p_busy_s, upp);
            if (!(t < bt || (t == bt && s < bs))) {
                if (kpush(c->k, at, c->seq, OP_PWAKE, upp, 0, 0) < 0)
                    return -1;
            }
        }
    } else {
        long upn = ivald(c->in_up_node, in_gid);
        if (upn >= 0) {
            c->seq += 1;
            double at = t + c->LINK;
            PyObject *key = Py_BuildValue("(dL)", at, c->seq);
            if (dq_append_steal(PyList_GET_ITEM(c->n_arr, upn), key) < 0)
                return -1;
            if (ivald(c->n_cred, upn) == 0 &&
                (dq_len(PyList_GET_ITEM(c->n_q, upn)) > 0 ||
                 PyList_GET_ITEM(c->n_src, upn) != Py_None)) {
                if (kpush(c->k, at, c->seq, OP_NWAKE, upn, 0, 0) < 0)
                    return -1;
            }
        }
    }
    c->seq += 1;
    long hop = ivald(c->k_hop, pid);
    long ovc = PyLong_AsLong(
        PyTuple_GET_ITEM(PyList_GET_ITEM(c->k_vcs, pid), hop));
    long pv = gid * c->V + ovc;
    return kpush(c->k, t + c->SWITCH, c->seq, OP_ENTER, pv, pid, gid);
}

static int
try_transfer(Ctx *c, long in_gid, long vc, double t, long long s)
{
    PyObject *q = PyList_GET_ITEM(c->iv_q, in_gid * c->V + vc);
    long base = ivald(c->in_pbase, in_gid);
    while (dq_len(q) > 0) {
        PyObject *head = PySequence_GetItem(q, 0);
        if (head == NULL)
            return -1;
        long pid = PyLong_AsLong(head);
        Py_DECREF(head);
        long hop = ivald(c->k_hop, pid);
        long gid = base + PyLong_AsLong(
            PyTuple_GET_ITEM(PyList_GET_ITEM(c->k_ports, pid), hop));
        long ovc = PyLong_AsLong(
            PyTuple_GET_ITEM(PyList_GET_ITEM(c->k_vcs, pid), hop));
        long pv = gid * c->V + ovc;
        if (ivald(c->pv_occ, pv) >= c->OQ_CAP) {
            PyObject *pr = Py_BuildValue("(ll)", in_gid, vc);
            return dq_append_steal(PyList_GET_ITEM(c->p_pend, gid), pr);
        }
        if (iset(c->pv_occ, pv, ivald(c->pv_occ, pv) + 1) < 0)
            return -1;
        PyObject *popped = dq_popleft(q);
        if (popped == NULL)
            return -1;
        Py_DECREF(popped);
        if (transfer_one(c, in_gid, vc, gid, pid, t, s) < 0)
            return -1;
    }
    return 0;
}

static int
admit_pending(Ctx *c, long gid, long freed_vc, double t, long long s)
{
    PyObject *pending = PyList_GET_ITEM(c->p_pend, gid);
    PyObject *it = PyObject_GetIter(pending);
    if (it == NULL)
        return -1;
    long i = 0;
    PyObject *item;
    while ((item = PyIter_Next(it)) != NULL) {
        long in_gid = PyLong_AsLong(PyTuple_GET_ITEM(item, 0));
        long vc = PyLong_AsLong(PyTuple_GET_ITEM(item, 1));
        Py_DECREF(item);
        PyObject *q = PyList_GET_ITEM(c->iv_q, in_gid * c->V + vc);
        PyObject *head = PySequence_GetItem(q, 0);
        if (head == NULL) {
            Py_DECREF(it);
            return -1;
        }
        long pid = PyLong_AsLong(head);
        Py_DECREF(head);
        long hop = ivald(c->k_hop, pid);
        long pvc = PyLong_AsLong(
            PyTuple_GET_ITEM(PyList_GET_ITEM(c->k_vcs, pid), hop));
        if (pvc == freed_vc) {
            Py_DECREF(it);
            if (i) {
                PyObject *narg = PyLong_FromLong(-i);
                if (narg == NULL)
                    return -1;
                PyObject *argv[2] = {pending, narg};
                PyObject *r = PyObject_Vectorcall(m_rotate, argv, 2, NULL);
                Py_DECREF(narg);
                if (r == NULL)
                    return -1;
                Py_DECREF(r);
            }
            PyObject *popped = dq_popleft(pending);
            if (popped == NULL)
                return -1;
            Py_DECREF(popped);
            return try_transfer(c, in_gid, vc, t, s);
        }
        i += 1;
    }
    Py_DECREF(it);
    return PyErr_Occurred() ? -1 : 0;
}

static int
try_transmit(Ctx *c, long gid, double t, long long s)
{
    long V = c->V;
    long vc = ivald(c->p_rr, gid);
    long base = gid * V;
    int has_cred = ivald(c->p_has_cred, gid) != 0;
    double best_t = 0.0;
    long long best_s = 0;
    int have_best = 0;
    for (long n = 0; n < V; n++) {
        if (vc >= V)
            vc -= V;
        long pv = base + vc;
        PyObject *oq = PyList_GET_ITEM(c->pv_oq, pv);
        if (dq_len(oq) == 0) {
            vc += 1;
            continue;
        }
        if (has_cred) {
            long cr = ivald(c->pv_cred, pv);
            if (cr <= 0) {
                PyObject *arr = PyList_GET_ITEM(c->pv_arr, pv);
                if (dq_len(arr) > 0) {
                    while (dq_len(arr) > 0) {
                        double at;
                        long long as;
                        if (dq_first_key(arr, &at, &as) < 0)
                            return -1;
                        if (at < t || (at == t && as <= s)) {
                            PyObject *p = dq_popleft(arr);
                            if (p == NULL)
                                return -1;
                            Py_DECREF(p);
                            cr += 1;
                        } else {
                            break;
                        }
                    }
                    if (iset(c->pv_cred, pv, cr) < 0)
                        return -1;
                }
                if (cr <= 0) {
                    /* Blocked on credits: remember the earliest
                     * in-flight arrival as a wake candidate. */
                    if (dq_len(arr) > 0) {
                        double at;
                        long long as;
                        if (dq_first_key(arr, &at, &as) < 0)
                            return -1;
                        if (!have_best || at < best_t ||
                            (at == best_t && as < best_s)) {
                            best_t = at;
                            best_s = as;
                            have_best = 1;
                        }
                    }
                    vc += 1;
                    continue;
                }
            }
            if (iset(c->pv_cred, pv, cr - 1) < 0)
                return -1;
        }
        PyObject *pp = dq_popleft(oq);
        if (pp == NULL)
            return -1;
        long pid = PyLong_AsLong(pp);
        Py_DECREF(pp);
        if (iset(c->p_oqtot, gid, ivald(c->p_oqtot, gid) - 1) < 0 ||
            iset(c->pv_occ, pv, ivald(c->pv_occ, pv) - 1) < 0 ||
            iset(c->p_queued, gid, ivald(c->p_queued, gid) - 1) < 0 ||
            iset(c->p_sent, gid, ivald(c->p_sent, gid) + 1) < 0)
            return -1;
        long nvc = vc + 1;
        if (iset(c->p_rr, gid, nvc < V ? nvc : 0) < 0)
            return -1;
        c->seq += 1; /* reserved: the elided port link-free event */
        double bt = t + c->SER;
        long long bs = c->seq;
        if (fset(c->p_busy_t, gid, bt) < 0 ||
            llset(c->p_busy_s, gid, bs) < 0)
            return -1;
        c->seq += 1;
        long din = ivald(c->p_dest_in, gid);
        if (din < 0) {
            if (kpush(c->k, t + c->SL, c->seq, OP_DELIVER, 0, 0, pid) < 0)
                return -1;
        } else {
            long hop = ivald(c->k_hop, pid);
            if (iset(c->k_hop, pid, hop + 1) < 0)
                return -1;
            if (kpush(c->k, t + c->SL, c->seq, OP_RECV, din, vc, pid) < 0)
                return -1;
        }
        if (ivald(c->p_oqtot, gid) > 0) {
            if (kpush(c->k, bt, bs, OP_PWAKE, gid, 0, 0) < 0)
                return -1;
            bset(c->p_wake, gid, 1);
        } else {
            bset(c->p_wake, gid, 0);
        }
        return admit_pending(c, gid, vc, t, s);
    }
    if (have_best)
        return kpush(c->k, best_t, best_s, OP_PWAKE, gid, 0, 0);
    return 0;
}

/* -- opcode handlers ------------------------------------------------------ */

static int
do_recv(Ctx *c, double t, long long s, long a, long b, long pid)
{
    long hop = ivald(c->k_hop, pid);
    long gid = ivald(c->in_pbase, a) + PyLong_AsLong(
        PyTuple_GET_ITEM(PyList_GET_ITEM(c->k_ports, pid), hop));
    if (iset(c->p_queued, gid, ivald(c->p_queued, gid) + 1) < 0)
        return -1;
    PyObject *q = PyList_GET_ITEM(c->iv_q, a * c->V + b);
    if (dq_len(q) > 0) {
        /* Behind others: no transfer attempt. */
        return dq_append_steal(q, PyLong_FromLong(pid));
    }
    /* Head-of-queue fast path: state-identical to append +
     * try_transfer on a one-element queue. */
    long ovc = PyLong_AsLong(
        PyTuple_GET_ITEM(PyList_GET_ITEM(c->k_vcs, pid), hop));
    long pv = gid * c->V + ovc;
    if (ivald(c->pv_occ, pv) >= c->OQ_CAP) {
        if (dq_append_steal(q, PyLong_FromLong(pid)) < 0)
            return -1;
        PyObject *pr = Py_BuildValue("(ll)", a, b);
        return dq_append_steal(PyList_GET_ITEM(c->p_pend, gid), pr);
    }
    if (iset(c->pv_occ, pv, ivald(c->pv_occ, pv) + 1) < 0)
        return -1;
    return transfer_one(c, a, b, gid, pid, t, s);
}

static int
do_enter(Ctx *c, double t, long long s, long pvid, long pid, long gid)
{
    if (ivald(c->p_dead, gid)) {
        /* Failed link: divert (reroute or drop) at this router,
         * mirroring the object backend's _enter_oq dead branch. */
        if (c->fm_divert == NULL) {
            PyErr_SetString(PyExc_RuntimeError,
                            "dead port entered with no fault manager");
            return -1;
        }
        if (c->stats_dirty && stats_flush(c) < 0)
            return -1;
        if (sync_out(c, t, s, 1) < 0)
            return -1;
        double t0 = mono_ns();
        PyObject *res = PyObject_CallFunction(c->fm_divert, "lll",
                                              pvid, pid, gid);
        c->k->esc_ns[ESC_DIVERT] += mono_ns() - t0;
        c->k->esc_counts[ESC_DIVERT] += 1;
        if (res == NULL)
            return -1;
        if (sync_in(c) < 0 || refresh_deliver_fast(c) < 0) {
            Py_DECREF(res);
            return -1;
        }
        if (admit_pending(c, gid, pvid - gid * c->V, t, s) < 0) {
            Py_DECREF(res);
            return -1;
        }
        if (res == Py_None) {
            Py_DECREF(res); /* dropped */
            return 0;
        }
        pvid = PyLong_AsLong(PyTuple_GET_ITEM(res, 0));
        gid = PyLong_AsLong(PyTuple_GET_ITEM(res, 1));
        Py_DECREF(res);
    }
    if (dq_append_steal(PyList_GET_ITEM(c->pv_oq, pvid),
                        PyLong_FromLong(pid)) < 0)
        return -1;
    if (iset(c->p_oqtot, gid, ivald(c->p_oqtot, gid) + 1) < 0)
        return -1;
    double bt = fval(c->p_busy_t, gid);
    long long bs = llval(c->p_busy_s, gid);
    if (t < bt || (t == bt && s < bs)) {
        if (!ivald(c->p_wake, gid)) {
            if (kpush(c->k, bt, bs, OP_PWAKE, gid, 0, 0) < 0)
                return -1;
            bset(c->p_wake, gid, 1);
        }
        return 0;
    }
    return try_transmit(c, gid, t, s);
}

static int
do_gen(Ctx *c, double t, long long s, long node)
{
    long i = ivald(c->g_i, node);
    if (iset(c->g_i, node, i + 1) < 0)
        return -1;
    long dst = ivald(PyList_GET_ITEM(c->g_d, node), i);
    if (dst == -2) /* past-horizon sentinel */
        return 0;
    if (dst >= 0) {
        /* Inlined NIC.submit(dst, packet_bytes). */
        PyObject *rec = Py_BuildValue("(llOd)", dst, c->PKTB, Py_None, t);
        if (dq_append_steal(PyList_GET_ITEM(c->n_q, node), rec) < 0)
            return -1;
        if (iset(c->n_qp, node, ivald(c->n_qp, node) + 1) < 0)
            return -1;
        double bt = fval(c->n_busy_t, node);
        long long bs = llval(c->n_busy_s, node);
        if (t < bt || (t == bt && s < bs)) {
            if (!ivald(c->n_wake, node)) {
                if (kpush(c->k, bt, bs, OP_NWAKE, node, 0, 0) < 0)
                    return -1;
                bset(c->n_wake, node, 1);
            }
        } else {
            if (nic_send(c, node, t, s) < 0)
                return -1;
        }
    }
    c->seq += 1;
    double nt = fval(PyList_GET_ITEM(c->g_t, node), i + 1);
    return kpush(c->k, nt, c->seq, OP_GEN, node, 0, 0);
}

static int
do_pwake(Ctx *c, double t, long long s, long gid)
{
    double bt = fval(c->p_busy_t, gid);
    long long bs = llval(c->p_busy_s, gid);
    if (!(t < bt || (t == bt && s < bs)))
        return try_transmit(c, gid, t, s);
    return 0;
}

static int
do_nwake(Ctx *c, double t, long long s, long node)
{
    double bt = fval(c->n_busy_t, node);
    long long bs = llval(c->n_busy_s, node);
    if (!(t < bt || (t == bt && s < bs)))
        return nic_send(c, node, t, s);
    return 0;
}

static int
do_deliver(Ctx *c, double t, long long s, long pid)
{
    if (c->deliver_fast) {
        /* Network.deliver + StatsCollector.record_eject, fully in C:
         * stamp eject_time and fold the stats into the accumulators
         * (flushed via absorb_kernel). */
        PyObject *pkt = PyList_GET_ITEM(c->k_obj, pid); /* borrowed */
        PyObject *tf = PyFloat_FromDouble(t);
        if (tf == NULL)
            return -1;
        if (PyObject_SetAttr(pkt, str_eject_time, tf) < 0) {
            Py_DECREF(tf);
            return -1;
        }
        Py_DECREF(tf);
        c->a_ej += 1;
        c->a_last = t; /* event times are monotone: running max */
        c->a_has_last = 1;
        PyObject *v = PyObject_GetAttr(pkt, str_dst_node);
        if (v == NULL)
            return -1;
        long dst = PyLong_AsLong(v);
        Py_DECREF(v);
        if (dst == -1 && PyErr_Occurred())
            return -1;
        c->a_ejcnt[dst] += 1;
        if (t >= c->win_start && (!c->win_has_end || t < c->win_end)) {
            c->a_ej_w += 1;
            v = PyObject_GetAttr(pkt, str_size);
            if (v == NULL)
                return -1;
            long long sz = PyLong_AsLongLong(v);
            Py_DECREF(v);
            if (sz == -1 && PyErr_Occurred())
                return -1;
            c->a_bytes += sz;
            v = PyObject_GetAttr(pkt, str_gen_time);
            if (v == NULL)
                return -1;
            double gt = PyFloat_AsDouble(v);
            Py_DECREF(v);
            if (gt == -1.0 && PyErr_Occurred())
                return -1;
            if (lat_push(c, t - gt) < 0)
                return -1;
            v = PyObject_GetAttr(pkt, str_kind);
            if (v == NULL)
                return -1;
            int kr = kind_incr(c, v);
            Py_DECREF(v);
            if (kr < 0)
                return -1;
            v = PyObject_GetAttr(pkt, str_routers);
            if (v == NULL)
                return -1;
            c->a_hops += (long long)PyTuple_GET_SIZE(v) - 1;
            Py_DECREF(v);
        }
        c->stats_dirty = 1;
        c->k->fast_counts[FAST_DELIVER] += 1;
        return 0;
    }
    /* Escape path: flush the C accumulators first so listeners /
     * wrapped deliver callbacks observe a coherent StatsCollector. */
    if (c->stats_dirty && stats_flush(c) < 0)
        return -1;
    if (sync_out(c, t, s, 1) < 0)
        return -1;
    double t0 = mono_ns();
    PyObject *r = PyObject_CallOneArg(c->deliver,
                                      PyList_GET_ITEM(c->k_obj, pid));
    c->k->esc_ns[ESC_DELIVER] += mono_ns() - t0;
    c->k->esc_counts[ESC_DELIVER] += 1;
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return sync_in(c);
}

static int
do_call(Ctx *c, double t, long long s, PyObject *fn, PyObject *args)
{
    /* Caller owns fn/args and decrefs them after we return. */
    if (c->stats_dirty && stats_flush(c) < 0)
        return -1;
    if (sync_out(c, t, s, 1) < 0)
        return -1;
    double t0 = mono_ns();
    PyObject *r = PyObject_Call(fn, args, NULL);
    c->k->esc_ns[ESC_CALL] += mono_ns() - t0;
    c->k->esc_counts[ESC_CALL] += 1;
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    if (sync_in(c) < 0)
        return -1;
    return refresh_deliver_fast(c);
}

/* -- fast-path binding / residency ---------------------------------------- */

/* Bind the fast-path spec (eng._fp, a namespace KernelEngine.run
 * computes per run; None disables).  Fills the Ctx fast-path fields
 * and, for route mode, imports the routing RNG streams and Network
 * packet-id counter into the Kernel (residency).  On error the caller
 * runs the normal Ctx cleanup, which drops whatever was bound. */
static int
bind_fastpath(Ctx *c, PyObject *eng, PyObject *net)
{
    Kernel *k = c->k;
    c->route_mode = -1;
    c->deliver_fast = 0;
    c->net = net; /* borrowed; outlives the run ctx */
    PyObject *fp = PyObject_GetAttr(eng, str_fp);
    if (fp == NULL) {
        /* Engine without a spec (direct Kernel.run callers). */
        PyErr_Clear();
        return 0;
    }
    if (fp == Py_None) {
        Py_DECREF(fp);
        return 0;
    }
    int rc = -1;
    PyObject *v = NULL;
#define FPGETO(dst, name)                                                 \
    do {                                                                  \
        c->dst = PyObject_GetAttrString(fp, name);                        \
        if (c->dst == NULL)                                               \
            goto done;                                                    \
    } while (0)
#define FPGETL(dst, name)                                                 \
    do {                                                                  \
        v = PyObject_GetAttrString(fp, name);                             \
        if (v == NULL)                                                    \
            goto done;                                                    \
        dst = PyLong_AsLong(v);                                           \
        Py_CLEAR(v);                                                      \
        if (dst == -1 && PyErr_Occurred())                                \
            goto done;                                                    \
    } while (0)
#define FPGETD(dst, name)                                                 \
    do {                                                                  \
        v = PyObject_GetAttrString(fp, name);                             \
        if (v == NULL)                                                    \
            goto done;                                                    \
        dst = PyFloat_AsDouble(v);                                        \
        Py_CLEAR(v);                                                      \
        if (dst == -1.0 && PyErr_Occurred())                              \
            goto done;                                                    \
    } while (0)

    {
        long mode, dfast, sf;
        FPGETL(mode, "route_mode");
        FPGETL(dfast, "deliver_fast");
        c->route_mode = (int)mode;
        c->deliver_fast = dfast ? 1 : 0;
        if (c->route_mode < 0 && !c->deliver_fast) {
            rc = 0;
            goto done;
        }
        FPGETO(stats_absorb, "stats_absorb");
        FPGETD(c->win_start, "win_start");
        v = PyObject_GetAttrString(fp, "win_end");
        if (v == NULL)
            goto done;
        if (v == Py_None) {
            c->win_has_end = 0;
            c->win_end = 0.0;
        } else {
            c->win_has_end = 1;
            c->win_end = PyFloat_AsDouble(v);
            if (c->win_end == -1.0 && PyErr_Occurred()) {
                Py_CLEAR(v);
                goto done;
            }
        }
        Py_CLEAR(v);
        if (c->deliver_fast) {
            c->a_ejcnt = (long long *)PyMem_Calloc((size_t)c->NN,
                                                   sizeof(long long));
            if (c->a_ejcnt == NULL) {
                PyErr_NoMemory();
                goto done;
            }
            c->a_kinds = PyDict_New();
            if (c->a_kinds == NULL)
                goto done;
        }
        if (c->route_mode >= 0) {
            FPGETO(packet_cls, "packet_cls");
            FPGETO(eject_ports, "eject_ports");
            FPGETO(min_rows, "min_rows");
            FPGETO(leg_rows, "leg_rows");
            FPGETO(composed, "composed");
            FPGETO(selfs, "selfs");
            FPGETO(minimal_fill, "minimal_fill");
            FPGETO(leg_fill, "leg_fill");
            FPGETO(compose, "compose");
            FPGETO(compose_or_none, "compose_or_none");
            FPGETO(self_route, "self_route");
            FPGETO(pool, "pool");
            c->npool = (c->pool != Py_None) ? (long)PyList_Size(c->pool) : 0;
            FPGETL(c->nI, "n_indirect");
            FPGETL(sf, "sf_mode");
            c->sf_mode = (int)sf;
            FPGETD(c->cc, "c");
            FPGETD(c->c_sf, "c_sf");
            v = PyObject_GetAttrString(fp, "thr_cap");
            if (v == NULL)
                goto done;
            if (v == Py_None) {
                c->has_thr = 0;
                c->thr_cap = 0.0;
            } else {
                c->has_thr = 1;
                c->thr_cap = PyFloat_AsDouble(v);
                if (c->thr_cap == -1.0 && PyErr_Occurred()) {
                    Py_CLEAR(v);
                    goto done;
                }
            }
            Py_CLEAR(v);

            /* RNG + packet-id residency. */
            PyObject *rngs = PyObject_GetAttrString(fp, "rngs");
            if (rngs == NULL)
                goto done;
            Py_ssize_t nr = PyList_Size(rngs);
            if (nr < 0 || nr > 2) {
                Py_DECREF(rngs);
                if (nr > 2)
                    PyErr_SetString(PyExc_ValueError,
                                    "kernel: at most 2 fast-path RNGs");
                goto done;
            }
            for (Py_ssize_t i = 0; i < nr; i++) {
                PyObject *obj = PyList_GET_ITEM(rngs, i);
                Py_INCREF(obj);
                k->rng[i].obj = obj;
                k->rng[i].gauss = NULL;
                if (crng_import(&k->rng[i]) < 0) {
                    for (Py_ssize_t j = 0; j <= i; j++)
                        crng_drop(&k->rng[j]);
                    Py_DECREF(rngs);
                    goto done;
                }
            }
            Py_DECREF(rngs);
            k->rng_n = (int)nr;
            c->rng0 = &k->rng[0];
            c->rng1 = (nr > 1) ? &k->rng[1] : &k->rng[0];
            v = PyObject_GetAttr(net, str_pid);
            if (v == NULL)
                goto done;
            k->pid = PyLong_AsLongLong(v);
            Py_CLEAR(v);
            if (k->pid == -1 && PyErr_Occurred())
                goto done;
            Py_INCREF(net);
            k->net = net;
            k->resident = 1;
        }
    }
    rc = 0;
done:
#undef FPGETO
#undef FPGETL
#undef FPGETD
    Py_XDECREF(v);
    Py_DECREF(fp);
    return rc;
}

/* End residency: push RNG streams + packet-id counter back to Python.
 * Always drops the refs, even if an export step fails. */
static int
kernel_export_resident(Kernel *k)
{
    if (!k->resident)
        return 0;
    int rc = 0;
    for (int i = 0; i < k->rng_n; i++) {
        if (k->rng[i].obj != NULL && crng_export(&k->rng[i]) < 0)
            rc = -1;
        crng_drop(&k->rng[i]);
    }
    k->rng_n = 0;
    if (k->net != NULL) {
        PyObject *v = PyLong_FromLongLong(k->pid);
        if (v == NULL || PyObject_SetAttr(k->net, str_pid, v) < 0)
            rc = -1;
        Py_XDECREF(v);
    }
    Py_CLEAR(k->net);
    k->resident = 0;
    return rc;
}

/* -- Kernel methods ------------------------------------------------------- */

static PyObject *
Kernel_push(Kernel *k, PyObject *args)
{
    double t;
    long long seq;
    int op;
    PyObject *a, *b, *cc;
    if (!PyArg_ParseTuple(args, "dLiOOO", &t, &seq, &op, &a, &b, &cc))
        return NULL;
    Event ev = {t, seq, op, 0, 0, 0, NULL, NULL};
    if (op == OP_CALL) {
        Py_INCREF(a);
        Py_INCREF(b);
        ev.fn = a;
        ev.args = b;
    } else {
        ev.a = PyLong_AsLong(a);
        ev.b = PyLong_AsLong(b);
        ev.c = PyLong_AsLong(cc);
        if (PyErr_Occurred())
            return NULL;
    }
    if (heap_push_ev(k, ev) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Kernel_run(Kernel *k, PyObject *args)
{
    PyObject *eng, *until_o = Py_None, *maxev_o = Py_None;
    if (!PyArg_ParseTuple(args, "O|OO", &eng, &until_o, &maxev_o))
        return NULL;
    double cap = Py_HUGE_VAL;
    if (until_o != Py_None) {
        cap = PyFloat_AsDouble(until_o);
        if (cap == -1.0 && PyErr_Occurred())
            return NULL;
    }
    long long rem = -1;
    if (maxev_o != Py_None) {
        rem = PyLong_AsLongLong(maxev_o);
        if (rem == -1 && PyErr_Occurred())
            return NULL;
    }

    Ctx c;
    memset(&c, 0, sizeof(c));
    c.k = k;
    c.eng = eng;

    PyObject *st = NULL, *net = NULL, *fm = NULL;
    long long executed = 0;
    int failed = 0;
    double t = 0.0;

    st = PyObject_GetAttr(eng, str_st);
    if (st == NULL)
        goto fail;
    net = PyObject_GetAttr(eng, str_net);
    if (net == NULL)
        goto fail;
    c.deliver = PyObject_GetAttr(net, str_deliver);
    if (c.deliver == NULL)
        goto fail;
    c.nic_send = PyObject_GetAttr(eng, str_nic_try_send);
    if (c.nic_send == NULL)
        goto fail;
    fm = PyObject_GetAttr(net, str_fault_manager);
    if (fm == NULL) {
        PyErr_Clear();
        fm = Py_None;
        Py_INCREF(fm);
    }
    if (fm != Py_None) {
        c.fm_divert = PyObject_GetAttr(fm, str_divert_tail);
        if (c.fm_divert == NULL)
            goto fail;
    }

#define X(name)                                                           \
    c.name = PyObject_GetAttrString(st, #name);                           \
    if (c.name == NULL)                                                   \
        goto fail;
    CTX_LISTS(X)
#undef X

    {
        PyObject *v;
#define GETL(dst, name)                                                   \
        v = PyObject_GetAttrString(st, name);                             \
        if (v == NULL)                                                    \
            goto fail;                                                    \
        dst = PyLong_AsLong(v);                                           \
        Py_DECREF(v);                                                     \
        if (dst == -1 && PyErr_Occurred())                                \
            goto fail;
#define GETD(dst, name)                                                   \
        v = PyObject_GetAttrString(st, name);                             \
        if (v == NULL)                                                    \
            goto fail;                                                    \
        dst = PyFloat_AsDouble(v);                                        \
        Py_DECREF(v);                                                     \
        if (dst == -1.0 && PyErr_Occurred())                              \
            goto fail;
        GETL(c.V, "V")
        GETL(c.OQ_CAP, "OQ_CAP")
        GETL(c.NR, "NR")
        GETL(c.NN, "NN")
        GETD(c.SER, "SER")
        GETD(c.LINK, "LINK")
        GETD(c.SWITCH, "SWITCH")
        GETD(c.SL, "SL")
        v = PyObject_GetAttrString(st, "g_pkt_bytes");
        if (v == NULL)
            goto fail;
        c.PKTB = (v == Py_None) ? 0 : PyLong_AsLong(v);
        Py_DECREF(v);
        if (c.PKTB == -1 && PyErr_Occurred())
            goto fail;
#undef GETL
#undef GETD

        v = PyObject_GetAttr(eng, str_now);
        if (v == NULL)
            goto fail;
        t = PyFloat_AsDouble(v);
        Py_DECREF(v);
        if (t == -1.0 && PyErr_Occurred())
            goto fail;
        v = PyObject_GetAttr(eng, str_seq);
        if (v == NULL)
            goto fail;
        c.seq = PyLong_AsLongLong(v);
        Py_DECREF(v);
        if (c.seq == -1 && PyErr_Occurred())
            goto fail;
    }

    if (bind_fastpath(&c, eng, net) < 0)
        goto fail;

    {
        double t_run0 = mono_ns();
        while (k->size) {
            Event *top = &k->heap[0];
            if (top->t > cap || rem == 0)
                break;
            Event ev = heap_pop_ev(k);
            t = ev.t;
            rem -= 1;
            executed += 1;
            k->op_counts[ev.op] += 1;
            if ((executed & 0x3FFF) == 0 && PyErr_CheckSignals() < 0) {
                failed = 1;
                break;
            }
            int rc;
            switch (ev.op) {
            case OP_RECV:
                rc = do_recv(&c, t, ev.seq, ev.a, ev.b, ev.c);
                break;
            case OP_ENTER:
                rc = do_enter(&c, t, ev.seq, ev.a, ev.b, ev.c);
                break;
            case OP_PWAKE:
                rc = do_pwake(&c, t, ev.seq, ev.a);
                break;
            case OP_DELIVER:
                rc = do_deliver(&c, t, ev.seq, ev.c);
                break;
            case OP_NWAKE:
                rc = do_nwake(&c, t, ev.seq, ev.a);
                break;
            case OP_GEN:
                rc = do_gen(&c, t, ev.seq, ev.a);
                break;
            case OP_CALL:
                rc = do_call(&c, t, ev.seq, ev.fn, ev.args);
                Py_DECREF(ev.fn);
                Py_DECREF(ev.args);
                break;
            default:
                PyErr_Format(PyExc_RuntimeError,
                             "kernel: unknown opcode %d", ev.op);
                rc = -1;
                break;
            }
            if (rc < 0) {
                failed = 1;
                break;
            }
        }
        k->run_ns += mono_ns() - t_run0;
        k->runs += 1;
    }

    goto sync;

fail:
    failed = 1;

sync:
    /* Mirror the Python loop's ``finally``: write back clock, sequence
     * counter and the executed-event total even on error. */
    {
        PyObject *exc_type = NULL, *exc_val = NULL, *exc_tb = NULL;
        if (failed)
            PyErr_Fetch(&exc_type, &exc_val, &exc_tb);
        /* Drain the fast-path accumulators and end residency first so
         * the StatsCollector, routing RNGs and Network._pid are
         * coherent even when the run is aborting on an exception. */
        if (c.stats_dirty && stats_flush(&c) < 0)
            failed = 1;
        if (kernel_export_resident(k) < 0)
            failed = 1;
        PyObject *v = PyFloat_FromDouble(t);
        if (v != NULL) {
            if (PyObject_SetAttr(eng, str_now, v) < 0)
                failed = 1;
            Py_DECREF(v);
        } else {
            failed = 1;
        }
        v = PyLong_FromLongLong(c.seq);
        if (v != NULL) {
            if (PyObject_SetAttr(eng, str_seq, v) < 0)
                failed = 1;
            Py_DECREF(v);
        } else {
            failed = 1;
        }
        PyObject *ee = PyObject_GetAttr(eng, str_events_executed);
        if (ee != NULL) {
            long long e0 = PyLong_AsLongLong(ee);
            Py_DECREF(ee);
            if (!(e0 == -1 && PyErr_Occurred())) {
                v = PyLong_FromLongLong(e0 + executed);
                if (v != NULL) {
                    if (PyObject_SetAttr(eng, str_events_executed, v) < 0)
                        failed = 1;
                    Py_DECREF(v);
                } else {
                    failed = 1;
                }
            } else {
                failed = 1;
            }
        } else {
            failed = 1;
        }
        if (exc_type != NULL)
            PyErr_Restore(exc_type, exc_val, exc_tb);
        else if (failed && !PyErr_Occurred())
            PyErr_SetString(PyExc_RuntimeError,
                            "kernel: engine sync failed after run");
    }

#define X(name) Py_XDECREF(c.name);
    CTX_LISTS(X)
#undef X
    Py_XDECREF(c.deliver);
    Py_XDECREF(c.nic_send);
    Py_XDECREF(c.fm_divert);
    Py_XDECREF(c.packet_cls);
    Py_XDECREF(c.eject_ports);
    Py_XDECREF(c.min_rows);
    Py_XDECREF(c.leg_rows);
    Py_XDECREF(c.composed);
    Py_XDECREF(c.selfs);
    Py_XDECREF(c.minimal_fill);
    Py_XDECREF(c.leg_fill);
    Py_XDECREF(c.compose);
    Py_XDECREF(c.compose_or_none);
    Py_XDECREF(c.self_route);
    Py_XDECREF(c.pool);
    Py_XDECREF(c.stats_absorb);
    Py_XDECREF(c.a_kinds);
    PyMem_Free(c.a_lat);
    PyMem_Free(c.a_ejcnt);
    Py_XDECREF(fm);
    Py_XDECREF(net);
    Py_XDECREF(st);

    if (failed)
        return NULL;
    return PyLong_FromLongLong(executed);
}

static PyObject *
Kernel_resident(Kernel *k, PyObject *Py_UNUSED(ignored))
{
    return PyBool_FromLong(k->resident);
}

/* Export the C-resident routing RNG states and packet-id counter to
 * their Python owners without ending residency: called by the engine's
 * ``_nic_try_send`` wrapper before a mid-run Python send so the
 * interpreter-side draws continue the shared streams. */
static PyObject *
Kernel_handoff_out(Kernel *k, PyObject *Py_UNUSED(ignored))
{
    if (!k->resident)
        Py_RETURN_NONE;
    for (int i = 0; i < k->rng_n; i++) {
        if (crng_export(&k->rng[i]) < 0)
            return NULL;
    }
    PyObject *v = PyLong_FromLongLong(k->pid);
    if (v == NULL)
        return NULL;
    if (PyObject_SetAttr(k->net, str_pid, v) < 0) {
        Py_DECREF(v);
        return NULL;
    }
    Py_DECREF(v);
    Py_RETURN_NONE;
}

/* Inverse of handoff_out: re-import whatever the Python side consumed
 * or advanced while it held the streams. */
static PyObject *
Kernel_handoff_in(Kernel *k, PyObject *Py_UNUSED(ignored))
{
    if (!k->resident)
        Py_RETURN_NONE;
    for (int i = 0; i < k->rng_n; i++) {
        if (crng_import(&k->rng[i]) < 0)
            return NULL;
    }
    PyObject *v = PyObject_GetAttr(k->net, str_pid);
    if (v == NULL)
        return NULL;
    long long pid = PyLong_AsLongLong(v);
    Py_DECREF(v);
    if (pid == -1 && PyErr_Occurred())
        return NULL;
    k->pid = pid;
    Py_RETURN_NONE;
}

static void
kernel_drop_events(Kernel *k)
{
    for (Py_ssize_t i = 0; i < k->size; i++) {
        Py_XDECREF(k->heap[i].fn);
        Py_XDECREF(k->heap[i].args);
    }
    k->size = 0;
}

static PyObject *
Kernel_clear(Kernel *k, PyObject *Py_UNUSED(ignored))
{
    kernel_drop_events(k);
    memset(k->op_counts, 0, sizeof(k->op_counts));
    memset(k->esc_counts, 0, sizeof(k->esc_counts));
    memset(k->esc_ns, 0, sizeof(k->esc_ns));
    memset(k->fast_counts, 0, sizeof(k->fast_counts));
    k->run_ns = 0.0;
    k->runs = 0;
    Py_RETURN_NONE;
}

static PyObject *
Kernel_pending(Kernel *k, PyObject *Py_UNUSED(ignored))
{
    return PyLong_FromSsize_t(k->size);
}

static PyObject *
Kernel_peek_time(Kernel *k, PyObject *Py_UNUSED(ignored))
{
    if (k->size == 0)
        Py_RETURN_NONE;
    return PyFloat_FromDouble(k->heap[0].t);
}

static PyObject *
Kernel_events(Kernel *k, PyObject *Py_UNUSED(ignored))
{
    /* All queued event records as engine-format tuples, in no
     * particular order (audits; mirrors BatchedEngine.iter_pending). */
    PyObject *out = PyList_New(k->size);
    if (out == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < k->size; i++) {
        Event *ev = &k->heap[i];
        PyObject *rec;
        if (ev->op == OP_CALL)
            rec = Py_BuildValue("(dLiOOl)", ev->t, ev->seq, ev->op,
                                ev->fn, ev->args, (long)0);
        else
            rec = Py_BuildValue("(dLilll)", ev->t, ev->seq, ev->op,
                                ev->a, ev->b, ev->c);
        if (rec == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, i, rec);
    }
    return out;
}

static PyObject *
Kernel_stats(Kernel *k, PyObject *Py_UNUSED(ignored))
{
    static const char *op_names[OP_COUNT] = {
        "RECV", "ENTER", "PWAKE", "DELIVER", "NWAKE", "GEN", "CALL"};
    static const char *esc_names[ESC_N] = {
        "make_packet", "deliver", "call", "fault_divert", "stats_flush"};
    static const char *fast_names[FAST_N] = {"make_packet", "deliver"};
    PyObject *ops = PyDict_New();
    PyObject *escs = PyDict_New();
    PyObject *fasts = PyDict_New();
    if (ops == NULL || escs == NULL || fasts == NULL)
        goto fail;
    unsigned long long total = 0;
    for (int i = 0; i < OP_COUNT; i++) {
        total += k->op_counts[i];
        PyObject *v = PyLong_FromUnsignedLongLong(k->op_counts[i]);
        if (v == NULL || PyDict_SetItemString(ops, op_names[i], v) < 0) {
            Py_XDECREF(v);
            goto fail;
        }
        Py_DECREF(v);
    }
    double esc_total_ns = 0.0;
    for (int i = 0; i < ESC_N; i++) {
        esc_total_ns += k->esc_ns[i];
        PyObject *e = Py_BuildValue("{s:K,s:d}", "count", k->esc_counts[i],
                                    "ns", k->esc_ns[i]);
        if (e == NULL || PyDict_SetItemString(escs, esc_names[i], e) < 0) {
            Py_XDECREF(e);
            goto fail;
        }
        Py_DECREF(e);
    }
    for (int i = 0; i < FAST_N; i++) {
        PyObject *e = Py_BuildValue("{s:K}", "count", k->fast_counts[i]);
        if (e == NULL || PyDict_SetItemString(fasts, fast_names[i], e) < 0) {
            Py_XDECREF(e);
            goto fail;
        }
        Py_DECREF(e);
    }
    {
        PyObject *out = Py_BuildValue(
            "{s:K,s:N,s:N,s:N,s:d,s:d,s:K}",
            "events", total,
            "op_counts", ops,
            "escapes", escs,
            "fast_path", fasts,
            "run_ns", k->run_ns,
            "escape_ns", esc_total_ns,
            "runs", k->runs);
        return out; /* ops/escs/fasts references stolen by N */
    }
fail:
    Py_XDECREF(ops);
    Py_XDECREF(escs);
    Py_XDECREF(fasts);
    return NULL;
}

/* -- type plumbing -------------------------------------------------------- */

static int
Kernel_traverse(Kernel *k, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < k->size; i++) {
        Py_VISIT(k->heap[i].fn);
        Py_VISIT(k->heap[i].args);
    }
    for (int i = 0; i < k->rng_n; i++) {
        Py_VISIT(k->rng[i].obj);
        Py_VISIT(k->rng[i].gauss);
    }
    Py_VISIT(k->net);
    return 0;
}

static int
Kernel_tp_clear(Kernel *k)
{
    kernel_drop_events(k);
    return 0;
}

static void
Kernel_dealloc(Kernel *k)
{
    PyObject_GC_UnTrack(k);
    kernel_drop_events(k);
    for (int i = 0; i < k->rng_n; i++)
        crng_drop(&k->rng[i]);
    Py_CLEAR(k->net);
    PyMem_Free(k->heap);
    Py_TYPE(k)->tp_free((PyObject *)k);
}

static PyMethodDef Kernel_methods[] = {
    {"push", (PyCFunction)Kernel_push, METH_VARARGS,
     "push(t, seq, op, a, b, c): queue one event record."},
    {"run", (PyCFunction)Kernel_run, METH_VARARGS,
     "run(engine, until=None, max_events=None) -> executed count."},
    {"clear", (PyCFunction)Kernel_clear, METH_NOARGS,
     "Drop all queued events and reset profile counters."},
    {"pending", (PyCFunction)Kernel_pending, METH_NOARGS,
     "Number of queued events."},
    {"peek_time", (PyCFunction)Kernel_peek_time, METH_NOARGS,
     "Timestamp of the earliest queued event, or None."},
    {"events", (PyCFunction)Kernel_events, METH_NOARGS,
     "All queued event records as tuples (audits)."},
    {"stats", (PyCFunction)Kernel_stats, METH_NOARGS,
     "In-kernel event counts and Python-escape time split."},
    {"resident", (PyCFunction)Kernel_resident, METH_NOARGS,
     "True while routing RNG / packet-id state lives in the kernel."},
    {"handoff_out", (PyCFunction)Kernel_handoff_out, METH_NOARGS,
     "Sync resident RNG streams + Network._pid out to Python."},
    {"handoff_in", (PyCFunction)Kernel_handoff_in, METH_NOARGS,
     "Re-import RNG streams + Network._pid after a Python send."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject KernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim.vec._kernel.Kernel",
    .tp_basicsize = sizeof(Kernel),
    .tp_dealloc = (destructor)Kernel_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled event heap + dispatch core for the batched backend.",
    .tp_traverse = (traverseproc)Kernel_traverse,
    .tp_clear = (inquiry)Kernel_tp_clear,
    .tp_methods = Kernel_methods,
    .tp_new = PyType_GenericNew,
};

/* Test hook (tests/test_kernel_rng_parity.py): import the state of a
 * random.Random, perform a scripted sequence of draws with the C
 * generator, export the advanced state back, and return the drawn
 * values.  Exercises exactly the import -> draw -> export path the
 * fast path uses, so draw-for-draw equality here is the parity proof. */
static PyObject *
mod_rng_parity(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *rng_obj, *ops;
    if (!PyArg_ParseTuple(args, "OO", &rng_obj, &ops))
        return NULL;
    CRng r;
    memset(&r, 0, sizeof(r));
    r.obj = rng_obj;
    Py_INCREF(r.obj);
    if (crng_import(&r) < 0) {
        crng_drop(&r);
        return NULL;
    }
    PyObject *out = PyList_New(0);
    PyObject *seq = out ? PySequence_Fast(ops, "ops must be a sequence")
                        : NULL;
    if (seq == NULL)
        goto fail;
    for (Py_ssize_t i = 0; i < PySequence_Fast_GET_SIZE(seq); i++) {
        PyObject *op = PySequence_Fast_GET_ITEM(seq, i);
        const char *kind;
        long arg;
        if (!PyArg_ParseTuple(op, "sl", &kind, &arg))
            goto fail;
        long val;
        if (strcmp(kind, "randbelow") == 0) {
            val = mt_randbelow(&r, arg);
        } else if (strcmp(kind, "getrandbits") == 0) {
            if (arg < 1 || arg > 32) {
                PyErr_SetString(PyExc_ValueError,
                                "getrandbits arg must be in [1, 32]");
                goto fail;
            }
            val = (long)mt_getrandbits(&r, (int)arg);
        } else {
            PyErr_Format(PyExc_ValueError, "unknown op %s", kind);
            goto fail;
        }
        PyObject *v = PyLong_FromLong(val);
        if (v == NULL)
            goto fail;
        int ar = PyList_Append(out, v);
        Py_DECREF(v);
        if (ar < 0)
            goto fail;
    }
    if (crng_export(&r) < 0)
        goto fail;
    Py_DECREF(seq);
    crng_drop(&r);
    return out;
fail:
    Py_XDECREF(seq);
    Py_XDECREF(out);
    crng_drop(&r);
    return NULL;
}

static PyMethodDef module_methods[] = {
    {"_rng_parity", mod_rng_parity, METH_VARARGS,
     "_rng_parity(rng, ops) -> list of draws; ops are "
     "('randbelow'|'getrandbits', n) pairs. Test-only."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernelmodule = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_kernel",
    .m_doc = "Compiled event kernel for the batched simulator backend.",
    .m_size = -1,
    .m_methods = module_methods,
};

PyMODINIT_FUNC
PyInit__kernel(void)
{
    if ((str_now = PyUnicode_InternFromString("now")) == NULL ||
        (str_cs = PyUnicode_InternFromString("_cs")) == NULL ||
        (str_seq = PyUnicode_InternFromString("_seq")) == NULL ||
        (str_events_executed =
             PyUnicode_InternFromString("events_executed")) == NULL ||
        (str_st = PyUnicode_InternFromString("st")) == NULL ||
        (str_net = PyUnicode_InternFromString("net")) == NULL ||
        (str_deliver = PyUnicode_InternFromString("deliver")) == NULL ||
        (str_nic_try_send =
             PyUnicode_InternFromString("_nic_try_send")) == NULL ||
        (str_fault_manager =
             PyUnicode_InternFromString("fault_manager")) == NULL ||
        (str_divert_tail = PyUnicode_InternFromString("divert_tail")) == NULL ||
        (str_fp = PyUnicode_InternFromString("_fp")) == NULL ||
        (str_pid = PyUnicode_InternFromString("_pid")) == NULL ||
        (str_tracer = PyUnicode_InternFromString("tracer")) == NULL ||
        (str_msg_track = PyUnicode_InternFromString("_msg_track")) == NULL ||
        (str_delivery_listeners =
             PyUnicode_InternFromString("_delivery_listeners")) == NULL ||
        (str_routers = PyUnicode_InternFromString("routers")) == NULL ||
        (str_ports = PyUnicode_InternFromString("ports")) == NULL ||
        (str_vcs = PyUnicode_InternFromString("vcs")) == NULL ||
        (str_kind = PyUnicode_InternFromString("kind")) == NULL ||
        (str_send_time = PyUnicode_InternFromString("send_time")) == NULL ||
        (str_eject_time = PyUnicode_InternFromString("eject_time")) == NULL ||
        (str_dst_node = PyUnicode_InternFromString("dst_node")) == NULL ||
        (str_size = PyUnicode_InternFromString("size")) == NULL ||
        (str_gen_time = PyUnicode_InternFromString("gen_time")) == NULL)
        return NULL;

    PyObject *collections = PyImport_ImportModule("collections");
    if (collections == NULL)
        return NULL;
    PyObject *deque = PyObject_GetAttrString(collections, "deque");
    Py_DECREF(collections);
    if (deque == NULL)
        return NULL;
    m_popleft = PyObject_GetAttrString(deque, "popleft");
    m_append = PyObject_GetAttrString(deque, "append");
    m_rotate = PyObject_GetAttrString(deque, "rotate");
    Py_DECREF(deque);
    if (m_popleft == NULL || m_append == NULL || m_rotate == NULL)
        return NULL;

    if (PyType_Ready(&KernelType) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&kernelmodule);
    if (m == NULL)
        return NULL;
    Py_INCREF(&KernelType);
    if (PyModule_AddObject(m, "Kernel", (PyObject *)&KernelType) < 0) {
        Py_DECREF(&KernelType);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
