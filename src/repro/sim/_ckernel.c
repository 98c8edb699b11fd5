/* _ckernel.c — compiled event-loop core for repro.sim.
 *
 * A hand-written CPython extension implementing the inner drain loop of
 * ``Environment.run`` (see core.py).  Selected at import time via
 * ``REPRO_ENGINE=compiled``; the pure-Python loop remains the default
 * and the behavioral reference.
 *
 * Parity contract (digest-proven by tests/test_engine_matrix.py):
 *
 *   - The heap is the same Python list of ``(time, priority, seq, event)``
 *     tuples, and it is the only container this loop reads: activation
 *     makes environments single-heap (core.py ``_install_loop``), so the
 *     pure-Python schedule sites push everything here and the wrapper
 *     refuses a tiered environment.
 *     Sequence numbers are unique, so the key order is total and the pop
 *     *sequence* is independent of the sift implementation — any valid
 *     min-heap maintenance yields the identical event order, byte for
 *     byte, even though the internal array layout may differ from
 *     CPython's ``_heapq``.
 *   - ``env._now`` is set once per same-(time, priority) batch, to the
 *     tuple's own float object, exactly like the pure loop.
 *   - Callback dispatch re-reads the list length every iteration (the
 *     pure ``for`` loop's iterator semantics), detaches
 *     ``event.callbacks`` to ``None`` before invoking and re-raises
 *     undefused failures.  Nothing is recycled here: wait objects that
 *     live more than once are re-armed by their owners (Request.hold).
 *   - ``_peak_pending`` is written back on *every* exit path, including
 *     exception propagation (``StopSimulation`` from an until-event
 *     callback travels through here to the Python wrapper).
 *
 * Performance notes: every event touches three attributes (``callbacks``
 * twice, ``_ok``) and on failure ``_defused``/``_value``.  All event
 * types in this codebase inherit :class:`Event`'s ``__slots__``, whose
 * member offsets are identical across subclasses, so ``setup()``
 * resolves the slot descriptors once and the loop reads/writes the
 * instance memory directly — skipping the descriptor protocol that a
 * generic ``PyObject_GetAttr`` would re-run per event.  A one-entry
 * type cache amortises the subtype check; anything unexpected falls
 * back to the generic attribute API with identical semantics.
 *
 * The until-protocol, gc suspension and ``stop_at`` clock fixup live in
 * the Python wrapper (repro/sim/compiled.py): they run once per
 * ``run()`` call, not per event, so compiling them buys nothing.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

/* Interned attribute names, created once at module init. */
static PyObject *S_callbacks;
static PyObject *S__value;
static PyObject *S__ok;
static PyObject *S__defused;
static PyObject *S__now;
static PyObject *S__queue;
static PyObject *S__peak_pending;

/* Set by setup(). */
static PyTypeObject *g_event_type = NULL;
static PyTypeObject *g_env_type = NULL;

/* Slot offsets resolved from the __slots__ member descriptors; -1 when
 * unresolved (setup() fails loudly instead, but keep the guard). */
static Py_ssize_t off_callbacks = -1;
static Py_ssize_t off_value = -1;
static Py_ssize_t off_ok = -1;
static Py_ssize_t off_defused = -1;
static Py_ssize_t off_now = -1;
static Py_ssize_t off_queue = -1;
static Py_ssize_t off_peak = -1;

#define SLOT(obj, off) (*(PyObject **)((char *)(obj) + (off)))

/* Overwrite an object slot, dropping the previous reference. */
static inline void
slot_store(PyObject *obj, Py_ssize_t off, PyObject *val)
{
    PyObject *old = SLOT(obj, off);
    Py_INCREF(val);
    SLOT(obj, off) = val;
    Py_XDECREF(old);
}

/* Resolve the byte offset of a __slots__ member defined on `tp`. */
static Py_ssize_t
member_offset(PyTypeObject *tp, PyObject *name)
{
    PyObject *descr = PyDict_GetItemWithError(tp->tp_dict, name);
    if (descr == NULL || Py_TYPE(descr) != &PyMemberDescr_Type)
        return -1;
    PyMemberDef *m = ((PyMemberDescrObject *)descr)->d_member;
    if (m->type != T_OBJECT_EX && m->type != T_OBJECT)
        return -1;
    return m->offset;
}

/* Strict less-than on two heap entries.  Fast path: both are 4-tuples
 * with (float, int, int, ...) prefixes — times are always PyFloat
 * (env._now float + float delay), priorities and sequence numbers are
 * machine-size ints.  Anything else falls back to the generic tuple
 * rich comparison, which is what heapq itself would have done.
 * Returns 1/0, or -1 with an exception set. */
static int
entry_lt(PyObject *a, PyObject *b)
{
    if (PyTuple_CheckExact(a) && PyTuple_CheckExact(b) &&
        PyTuple_GET_SIZE(a) == 4 && PyTuple_GET_SIZE(b) == 4) {
        PyObject *ta = PyTuple_GET_ITEM(a, 0);
        PyObject *tb = PyTuple_GET_ITEM(b, 0);
        if (PyFloat_CheckExact(ta) && PyFloat_CheckExact(tb)) {
            double da = PyFloat_AS_DOUBLE(ta);
            double db = PyFloat_AS_DOUBLE(tb);
            if (da != db)
                return da < db;
            PyObject *pa = PyTuple_GET_ITEM(a, 1);
            PyObject *pb = PyTuple_GET_ITEM(b, 1);
            if (PyLong_CheckExact(pa) && PyLong_CheckExact(pb)) {
                int ova = 0, ovb = 0;
                long la = PyLong_AsLongAndOverflow(pa, &ova);
                long lb = PyLong_AsLongAndOverflow(pb, &ovb);
                if (!ova && !ovb) {
                    if (la != lb)
                        return la < lb;
                    PyObject *sa = PyTuple_GET_ITEM(a, 2);
                    PyObject *sb = PyTuple_GET_ITEM(b, 2);
                    if (PyLong_CheckExact(sa) && PyLong_CheckExact(sb)) {
                        int osa = 0, osb = 0;
                        long ja = PyLong_AsLongAndOverflow(sa, &osa);
                        long jb = PyLong_AsLongAndOverflow(sb, &osb);
                        if (!osa && !osb)
                            return ja < jb;  /* seq unique: never equal */
                    }
                }
            }
        }
    }
    return PyObject_RichCompareBool(a, b, Py_LT);
}

/* Restore the min-heap invariant after the root was replaced. */
static int
heap_sift_root(PyObject *heap)
{
    Py_ssize_t pos = 0;
    for (;;) {
        Py_ssize_t n = PyList_GET_SIZE(heap);
        Py_ssize_t child = 2 * pos + 1;
        if (child >= n)
            break;
        Py_ssize_t right = child + 1;
        if (right < n) {
            int r = entry_lt(PyList_GET_ITEM(heap, right),
                             PyList_GET_ITEM(heap, child));
            if (r < 0)
                return -1;
            if (r)
                child = right;
        }
        int r = entry_lt(PyList_GET_ITEM(heap, child),
                         PyList_GET_ITEM(heap, pos));
        if (r < 0)
            return -1;
        if (!r)
            break;
        PyObject *parent = PyList_GET_ITEM(heap, pos);
        PyObject *smallest = PyList_GET_ITEM(heap, child);
        PyList_SET_ITEM(heap, pos, smallest);
        PyList_SET_ITEM(heap, child, parent);
        pos = child;
    }
    return 0;
}

/* heappop equivalent.  Caller guarantees the heap is non-empty.
 * Returns a new reference to the popped entry, or NULL on error. */
static PyObject *
heap_pop(PyObject *heap)
{
    Py_ssize_t n = PyList_GET_SIZE(heap);
    PyObject *last = PyList_GET_ITEM(heap, n - 1);
    Py_INCREF(last);
    if (PyList_SetSlice(heap, n - 1, n, NULL) < 0) {
        Py_DECREF(last);
        return NULL;
    }
    if (n == 1)
        return last;
    PyObject *ret = PyList_GET_ITEM(heap, 0);
    Py_INCREF(ret);
    PyList_SetItem(heap, 0, last); /* steals `last`, frees old slot 0 ref */
    if (heap_sift_root(heap) < 0) {
        Py_DECREF(ret);
        return NULL;
    }
    return ret;
}

/* Truth-test an _ok/_defused slot value: almost always an exact bool. */
static inline int
flag_is_true(PyObject *v)
{
    if (v == Py_True)
        return 1;
    if (v == Py_False)
        return 0;
    return PyObject_IsTrue(v);
}

/* Invoke every callback parked on `event`, with the pure loop's exact
 * semantics: detach the list first, shortcut the 1-callback case,
 * re-read the length each iteration.  `fast` means the Event slot
 * offsets apply to this instance.  Returns 0, or -1 with an exception
 * set. */
static int
dispatch_callbacks(PyObject *event, int fast)
{
    PyObject *callbacks;
    if (fast) {
        callbacks = SLOT(event, off_callbacks);
        if (callbacks == NULL) {
            PyErr_SetObject(PyExc_AttributeError, S_callbacks);
            return -1;
        }
        Py_INCREF(callbacks);
        slot_store(event, off_callbacks, Py_None);
    }
    else {
        callbacks = PyObject_GetAttr(event, S_callbacks);
        if (callbacks == NULL)
            return -1;
        if (PyObject_SetAttr(event, S_callbacks, Py_None) < 0) {
            Py_DECREF(callbacks);
            return -1;
        }
    }
    if (PyList_CheckExact(callbacks)) {
        if (PyList_GET_SIZE(callbacks) == 1) {
            PyObject *cb = PyList_GET_ITEM(callbacks, 0);
            Py_INCREF(cb);
            PyObject *res = PyObject_CallOneArg(cb, event);
            Py_DECREF(cb);
            if (res == NULL) {
                Py_DECREF(callbacks);
                return -1;
            }
            Py_DECREF(res);
        }
        else {
            for (Py_ssize_t i = 0; i < PyList_GET_SIZE(callbacks); i++) {
                PyObject *cb = PyList_GET_ITEM(callbacks, i);
                Py_INCREF(cb);
                PyObject *res = PyObject_CallOneArg(cb, event);
                Py_DECREF(cb);
                if (res == NULL) {
                    Py_DECREF(callbacks);
                    return -1;
                }
                Py_DECREF(res);
            }
        }
    }
    else {
        /* Non-list callbacks never occur in this codebase; mirror the
         * pure loop's generic iteration just in case. */
        PyObject *it = PyObject_GetIter(callbacks);
        if (it == NULL) {
            Py_DECREF(callbacks);
            return -1;
        }
        PyObject *cb;
        while ((cb = PyIter_Next(it)) != NULL) {
            PyObject *res = PyObject_CallOneArg(cb, event);
            Py_DECREF(cb);
            if (res == NULL) {
                Py_DECREF(it);
                Py_DECREF(callbacks);
                return -1;
            }
            Py_DECREF(res);
        }
        Py_DECREF(it);
        Py_DECREF(callbacks);
        return PyErr_Occurred() ? -1 : 0;
    }
    Py_DECREF(callbacks);
    return 0;
}

/* Post-dispatch bookkeeping: propagate an undefused failure.  Returns
 * 0, or -1 with an exception set. */
static int
finish_event(PyObject *event, int fast)
{
    PyObject *tmp;
    int ok;
    if (fast) {
        tmp = SLOT(event, off_ok);
        if (tmp == NULL) {
            PyErr_SetObject(PyExc_AttributeError, S__ok);
            return -1;
        }
        ok = flag_is_true(tmp);
    }
    else {
        tmp = PyObject_GetAttr(event, S__ok);
        if (tmp == NULL)
            return -1;
        ok = flag_is_true(tmp);
        Py_DECREF(tmp);
    }
    if (ok < 0)
        return -1;
    if (ok)
        return 0;
    int defused;
    if (fast) {
        tmp = SLOT(event, off_defused);
        if (tmp == NULL) {
            PyErr_SetObject(PyExc_AttributeError, S__defused);
            return -1;
        }
        defused = flag_is_true(tmp);
    }
    else {
        tmp = PyObject_GetAttr(event, S__defused);
        if (tmp == NULL)
            return -1;
        defused = flag_is_true(tmp);
        Py_DECREF(tmp);
    }
    if (defused < 0)
        return -1;
    if (defused)
        return 0;
    /* `raise event._value` */
    PyObject *exc = fast ? SLOT(event, off_value)
                         : PyObject_GetAttr(event, S__value);
    if (fast)
        Py_XINCREF(exc);
    if (exc != NULL) {
        if (PyExceptionInstance_Check(exc))
            PyErr_SetObject((PyObject *)Py_TYPE(exc), exc);
        else if (PyExceptionClass_Check(exc))
            PyErr_SetObject(exc, NULL);
        else
            PyErr_SetString(PyExc_TypeError,
                            "exceptions must derive from BaseException");
        Py_DECREF(exc);
    }
    else if (!PyErr_Occurred()) {
        PyErr_SetObject(PyExc_AttributeError, S__value);
    }
    return -1;
}

/* drain(env, horizon) -> bool
 *
 * Run the batched dispatch loop until the queue empties (returns False)
 * or the heap top reaches `horizon` (returns True; the caller fixes up
 * env._now to stop_at, exactly as the pure loop does).  Exceptions from
 * callbacks — including StopSimulation — propagate, with the peak-heap
 * high-water mark written back first. */
static PyObject *
ckernel_drain(PyObject *self, PyObject *args)
{
    PyObject *env;
    double horizon;
    if (!PyArg_ParseTuple(args, "Od:drain", &env, &horizon))
        return NULL;
    if (g_event_type == NULL || g_env_type == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "_ckernel.setup() not called");
        return NULL;
    }

    int env_fast = PyType_IsSubtype(Py_TYPE(env), g_env_type);
    PyObject *queue;
    if (env_fast) {
        queue = SLOT(env, off_queue);
        if (queue == NULL) {
            PyErr_SetString(PyExc_AttributeError,
                            "environment not fully initialised");
            return NULL;
        }
        Py_INCREF(queue);
    }
    else {
        queue = PyObject_GetAttr(env, S__queue);
        if (queue == NULL)
            return NULL;
    }
    if (!PyList_CheckExact(queue)) {
        PyErr_SetString(PyExc_TypeError, "env._queue must be a list");
        Py_DECREF(queue);
        return NULL;
    }

    PyObject *tmp;
    Py_ssize_t peak;
    if (env_fast) {
        tmp = SLOT(env, off_peak);
        peak = tmp ? PyLong_AsSsize_t(tmp) : -1;
    }
    else {
        tmp = PyObject_GetAttr(env, S__peak_pending);
        peak = tmp ? PyLong_AsSsize_t(tmp) : -1;
        Py_XDECREF(tmp);
        tmp = NULL;
    }
    if (peak == -1 && PyErr_Occurred()) {
        Py_DECREF(queue);
        return NULL;
    }

    /* One-entry cache for the per-event layout check: event types
     * repeat heavily (machines, timeouts, requests), so the subtype
     * walk runs only on type changes. */
    PyTypeObject *fast_type = NULL;

    int hit_horizon = 0;

    while (PyList_GET_SIZE(queue) > 0) {
        PyObject *head = PyList_GET_ITEM(queue, 0);
        PyObject *at_obj = PyTuple_GET_ITEM(head, 0);
        double at;
        if (PyFloat_CheckExact(at_obj))
            at = PyFloat_AS_DOUBLE(at_obj);
        else {
            at = PyFloat_AsDouble(at_obj);
            if (at == -1.0 && PyErr_Occurred())
                goto fail;
        }
        if (at >= horizon) {
            hit_horizon = 1;
            break;
        }
        /* The pure loop stores the tuple's own float object: zero
         * allocation, and `env.now` aliases the key exactly. */
        Py_INCREF(at_obj);
        if (env_fast)
            slot_store(env, off_now, at_obj);
        else if (PyObject_SetAttr(env, S__now, at_obj) < 0) {
            Py_DECREF(at_obj);
            goto fail;
        }
        PyObject *prio_obj = PyTuple_GET_ITEM(head, 1);
        Py_INCREF(prio_obj);

        /* Same-(time, priority) batch. */
        for (;;) {
            Py_ssize_t qlen = PyList_GET_SIZE(queue);
            if (qlen > peak)
                peak = qlen;
            PyObject *entry = heap_pop(queue);
            if (entry == NULL)
                goto batch_fail;
            PyObject *event = PyTuple_GET_ITEM(entry, 3);
            Py_INCREF(event);
            Py_DECREF(entry);

            PyTypeObject *tp = Py_TYPE(event);
            int fast;
            if (tp == fast_type)
                fast = 1;
            else {
                fast = PyType_IsSubtype(tp, g_event_type);
                if (fast)
                    fast_type = tp;
            }

            if (dispatch_callbacks(event, fast) < 0 ||
                finish_event(event, fast) < 0) {
                Py_DECREF(event);
                goto batch_fail;
            }
            Py_DECREF(event);

            /* Same-key continuation: stay in the batch while the heap
             * top shares this timestamp and priority class. */
            if (PyList_GET_SIZE(queue) == 0)
                break;
            head = PyList_GET_ITEM(queue, 0);
            PyObject *h0 = PyTuple_GET_ITEM(head, 0);
            if (PyFloat_CheckExact(h0)) {
                if (PyFloat_AS_DOUBLE(h0) != at)
                    break;
            }
            else {
                int ne = PyObject_RichCompareBool(h0, at_obj, Py_NE);
                if (ne < 0)
                    goto batch_fail;
                if (ne)
                    break;
            }
            PyObject *h1 = PyTuple_GET_ITEM(head, 1);
            if (h1 != prio_obj) {
                int ne = PyObject_RichCompareBool(h1, prio_obj, Py_NE);
                if (ne < 0)
                    goto batch_fail;
                if (ne)
                    break;
            }
        }
        Py_DECREF(at_obj);
        Py_DECREF(prio_obj);
        continue;

    batch_fail:
        Py_DECREF(at_obj);
        Py_DECREF(prio_obj);
        goto fail;
    }

    tmp = PyLong_FromSsize_t(peak);
    if (tmp == NULL)
        goto fail;
    if (env_fast)
        slot_store(env, off_peak, tmp);
    else if (PyObject_SetAttr(env, S__peak_pending, tmp) < 0) {
        Py_DECREF(tmp);
        goto fail;
    }
    Py_DECREF(tmp);
    Py_DECREF(queue);
    return PyBool_FromLong(hit_horizon);

fail:;
    /* Write the peak back even when propagating an exception — the
     * pure loop's `finally` does the same. */
    PyObject *et, *ev, *etb;
    PyErr_Fetch(&et, &ev, &etb);
    tmp = PyLong_FromSsize_t(peak);
    if (tmp != NULL) {
        if (env_fast)
            slot_store(env, off_peak, tmp);
        else if (PyObject_SetAttr(env, S__peak_pending, tmp) < 0)
            PyErr_Clear();
        Py_DECREF(tmp);
    }
    PyErr_Restore(et, ev, etb);
    Py_DECREF(queue);
    return NULL;
}

/* setup(event_cls, env_cls) — register the core classes and resolve the
 * slot offsets the fast paths rely on. */
static PyObject *
ckernel_setup(PyObject *self, PyObject *args)
{
    PyObject *event_cls, *env_cls;
    if (!PyArg_ParseTuple(args, "OO:setup", &event_cls, &env_cls))
        return NULL;
    if (!PyType_Check(event_cls) || !PyType_Check(env_cls)) {
        PyErr_SetString(PyExc_TypeError, "setup() expects two classes");
        return NULL;
    }

    PyTypeObject *etp = (PyTypeObject *)event_cls;
    PyTypeObject *ntp = (PyTypeObject *)env_cls;
    off_callbacks = member_offset(etp, S_callbacks);
    off_value = member_offset(etp, S__value);
    off_ok = member_offset(etp, S__ok);
    off_defused = member_offset(etp, S__defused);
    off_now = member_offset(ntp, S__now);
    off_queue = member_offset(ntp, S__queue);
    off_peak = member_offset(ntp, S__peak_pending);
    if (off_callbacks < 0 || off_value < 0 || off_ok < 0 ||
        off_defused < 0 || off_now < 0 || off_queue < 0 || off_peak < 0) {
        PyErr_SetString(PyExc_TypeError,
                        "Event/Environment __slots__ layout not recognised");
        return NULL;
    }

    Py_INCREF(event_cls);
    Py_XSETREF(g_event_type, etp);
    Py_INCREF(env_cls);
    Py_XSETREF(g_env_type, ntp);
    Py_RETURN_NONE;
}

static PyMethodDef ckernel_methods[] = {
    {"setup", ckernel_setup, METH_VARARGS,
     "setup(event_cls, env_cls): register core types."},
    {"drain", ckernel_drain, METH_VARARGS,
     "drain(env, horizon) -> bool: run the batched dispatch loop."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef ckernel_module = {
    PyModuleDef_HEAD_INIT,
    "_ckernel",
    "Compiled event-loop core for repro.sim (see _ckernel.c).",
    -1,
    ckernel_methods,
};

PyMODINIT_FUNC
PyInit__ckernel(void)
{
    S_callbacks = PyUnicode_InternFromString("callbacks");
    S__value = PyUnicode_InternFromString("_value");
    S__ok = PyUnicode_InternFromString("_ok");
    S__defused = PyUnicode_InternFromString("_defused");
    S__now = PyUnicode_InternFromString("_now");
    S__queue = PyUnicode_InternFromString("_queue");
    S__peak_pending = PyUnicode_InternFromString("_peak_pending");
    if (S_callbacks == NULL || S__value == NULL || S__ok == NULL ||
        S__defused == NULL || S__now == NULL || S__queue == NULL ||
        S__peak_pending == NULL)
        return NULL;
    return PyModule_Create(&ckernel_module);
}
