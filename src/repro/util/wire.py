"""Wire schemas, compiled to struct plans.

Every message, transaction op and proxy RPC payload declares *one*
schema — an ordered tuple of ``(field, kind)`` — and both directions of
its codec are generated from it, so encode and decode cannot drift
apart.  Kinds:

* fixed-width scalars (:data:`U8` … :data:`F64`, :data:`BOOL`;
  :func:`enum` wraps one in an ``IntEnum``),
* :data:`STR` / :data:`BYTES` — u32 length prefix + raw bytes,
* :class:`Custom` — a ``pack`` / ``unpack`` pair over the same
  primitives: the homogeneous lists (:data:`U32_LIST`,
  :data:`STR_LIST`) and per-class hooks for layouts no generic kind
  expresses,
* :data:`OPT_BLOB` — a trailing optional bulk payload: one flag byte at
  the end of the real bytes, the :class:`DataBlob` as the next extent
  (:data:`BLOB` is the unconditional, flag-less form).

:func:`compile_schema` flattens a schema into fixed-width items (a
string contributes its u32 length) and raw slices, fuses every maximal
run of fixed-width items into one precompiled ``struct.Struct``, and
emits straight-line functions: ``pack`` joins the packed runs and
slices into the real bytes of one extent, ``unpack`` walks the same runs
with ``unpack_from``.  The bytes are those the ``BufferList.encode_*``
primitives produce field by field, and so are the extent boundaries
(real bytes coalesce until a blob interrupts them): lengths feed the
TCP and CRC cost models, the wire adversary mutates whole extents, and
every golden digest rests on both.

Malformed input fails as :class:`EncodeError`, whatever went wrong
underneath (short buffer, bad enum value, invalid UTF-8, trailing
bytes): receivers count a decode error and drop the frame.
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Any, Callable, Optional, Sequence, Union

from .bufferlist import BufferList, DataBlob, EncodeError, Extent

__all__ = [
    "Scalar", "U8", "U16", "U32", "U64", "S64", "F64", "BOOL", "enum",
    "STR", "BYTES", "Custom", "U32_LIST", "STR_LIST",
    "OPT_BLOB", "BLOB", "Schema", "Plan", "compile_schema", "tagged_front",
    "pack_str", "unpack_str",
]


@dataclasses.dataclass(frozen=True, slots=True)
class Scalar:
    """A fixed-width little-endian field: one ``struct`` format
    character, optionally converted on decode (``conv``: an ``IntEnum``
    whose ``ValueError`` on an unknown value becomes ``EncodeError``)."""

    fmt: str
    conv: Optional[Callable[[Any], Any]] = None


U8, U16, U32, U64 = Scalar("B"), Scalar("H"), Scalar("I"), Scalar("Q")
S64, F64, BOOL = Scalar("q"), Scalar("d"), Scalar("?")


def enum(base: Scalar, cls: Callable[[Any], Any]) -> Scalar:
    """``base`` carrying a member of the ``IntEnum`` ``cls``."""
    return Scalar(base.fmt, cls)


@dataclasses.dataclass(frozen=True, slots=True)
class Custom:
    """A variable-width field (or group of fields) with its own codec.

    ``pack(*values) -> bytes`` and ``unpack(buf, pos) -> (value, pos)``;
    when the schema entry names a tuple of fields, ``pack`` receives one
    value per name and ``unpack`` returns them as a tuple."""

    pack: Callable[..., bytes]
    unpack: Callable[[bytes, int], tuple[Any, int]]


class _Marker:
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return self.name


STR, BYTES = _Marker("STR"), _Marker("BYTES")
OPT_BLOB, BLOB = _Marker("OPT_BLOB"), _Marker("BLOB")

Kind = Union[Scalar, Custom, _Marker]
Schema = tuple[tuple[Union[str, tuple[str, ...]], Kind], ...]

_u32 = struct.Struct("<I")
_u32_pack, _u32_unpack = _u32.pack, _u32.unpack_from


def pack_str(s: str) -> bytes:
    raw = s.encode()
    return _u32_pack(len(raw)) + raw


def unpack_str(buf: bytes, pos: int) -> tuple[str, int]:
    (n,) = _u32_unpack(buf, pos)
    pos += 4
    # a slice cut short leaves ``pos`` past the end of ``buf``: the next
    # ``unpack_from``, or the caller's final position check, rejects it
    end = pos + n
    return buf[pos:end].decode(), end


def _pack_u32s(values: Sequence[int]) -> bytes:
    return struct.pack(f"<I{len(values)}I", len(values), *values)


def _unpack_u32s(buf: bytes, pos: int) -> tuple[tuple[int, ...], int]:
    (n,) = _u32_unpack(buf, pos)
    pos += 4
    if pos + 4 * n > len(buf):
        raise EncodeError(f"list of {n} u32 runs past the end of the buffer")
    return struct.unpack_from(f"<{n}I", buf, pos), pos + 4 * n


def _pack_strs(values: Sequence[str]) -> bytes:
    return _u32_pack(len(values)) + b"".join(map(pack_str, values))


def _unpack_strs(buf: bytes, pos: int) -> tuple[tuple[str, ...], int]:
    (n,) = _u32_unpack(buf, pos)
    pos += 4
    out = []
    for _ in range(n):
        s, pos = unpack_str(buf, pos)
        out.append(s)
    return tuple(out), pos


#: u32 count + that many u32 (decodes to a tuple).
U32_LIST = Custom(_pack_u32s, _unpack_u32s)
#: u32 count + that many strings (decodes to a tuple).
STR_LIST = Custom(_pack_strs, _unpack_strs)


def _real_run(extents: list[Extent], i: int) -> tuple[bytes, int]:
    """The real bytes starting at extent ``i`` (consecutive real extents
    joined) and the index of the extent after them."""
    j = i
    while j < len(extents) and extents[j].__class__ is bytes:
        j += 1
    if j == i + 1:
        return extents[i], j  # type: ignore[return-value]
    return b"".join(extents[i:j]), j  # type: ignore[arg-type]


_MALFORMED = (struct.error, ValueError, IndexError)


class Plan:
    """A compiled schema.

    ``pack(obj) -> (real bytes, blob or None)`` and ``unpack(buf, pos,
    next_extent) -> (obj, pos, took_blob)`` are the generated halves
    (``source`` keeps their text).  Compiled with ``cls=None`` the plan
    is positional: ``pack`` takes the fields as arguments and ``unpack``
    yields them as a tuple.
    """

    __slots__ = ("name", "source", "pack", "unpack")

    def __init__(self, name: str, source: str, namespace: dict[str, Any]) -> None:
        self.name = name
        self.source = source
        # a file name under this package, so profilers and stack
        # samplers charge generated code to ``util`` like the rest
        exec(compile(source, f"{__file__}:<{name}>", "exec"), namespace)
        self.pack = namespace["pack"]
        self.unpack = namespace["unpack"]

    def encode(self, *obj: Any) -> BufferList:
        """One object (or, for a positional plan, its fields) as a
        bufferlist: a single real extent, then the blob if it has one."""
        front, blob = self.pack(*obj)
        if blob is None:
            return BufferList._adopt([front], len(front), 0)
        return BufferList._adopt([front, blob], len(front), blob.length)

    def decode(self, bl: BufferList) -> Any:
        """Inverse of :meth:`encode`; the real bytes may arrive split
        across several extents."""
        return self.decode_front(*_front(bl))

    def decode_front(self, buf: bytes, nxt: Optional[Extent]) -> Any:
        """Decode from the leading real bytes ``buf``, all of them, and
        the extent after them (see :func:`tagged_front`)."""
        try:
            obj, pos, _ = self.unpack(buf, 0, nxt)
        except _MALFORMED as exc:
            raise EncodeError(f"malformed {self.name}: {exc}") from None
        if pos != len(buf):
            raise EncodeError(
                f"malformed {self.name}: decoded {pos} of {len(buf)} bytes"
            )
        return obj

    def encode_list(self, items: Sequence[Any]) -> BufferList:
        """u32 count + each item's encoding; real bytes coalesce across
        items until a blob ends the extent."""
        pack = self.pack
        extents: list[Extent] = []
        parts = [_u32_pack(len(items))]
        real = virtual = 0
        for item in items:
            front, blob = pack(item)
            parts.append(front)
            if blob is not None:
                chunk = b"".join(parts)
                real += len(chunk)
                virtual += blob.length
                extents += (chunk, blob)
                parts = []
        if parts:
            chunk = b"".join(parts)
            real += len(chunk)
            extents.append(chunk)
        return BufferList._adopt(extents, real, virtual)

    def decode_list(self, bl: BufferList) -> list[Any]:
        """Inverse of :meth:`encode_list`."""
        extents = bl._flush()
        unpack = self.unpack
        items = []
        try:
            buf, i = _real_run(extents, 0)
            (count,) = _u32_unpack(buf, 0)
            pos = 4
            for _ in range(count):
                if pos == len(buf):
                    # a blob ended the previous run of real bytes
                    buf, i = _real_run(extents, i)
                    pos = 0
                nxt = extents[i] if i < len(extents) else None
                item, pos, took_blob = unpack(buf, pos, nxt)
                items.append(item)
                if took_blob:
                    if pos != len(buf):
                        break
                    i += 1
        except _MALFORMED as exc:
            raise EncodeError(f"malformed {self.name} list: {exc}") from None
        if pos != len(buf) or i != len(extents):
            raise EncodeError(
                f"malformed {self.name} list: {count} items end at byte {pos}"
                f" of {len(buf)}, extent {i} of {len(extents)}"
            )
        return items

    def __repr__(self) -> str:
        return f"<Plan {self.name}>"


def _front(bl: BufferList) -> tuple[bytes, Optional[Extent]]:
    extents = bl._flush()
    buf, i = _real_run(extents, 0)
    return buf, extents[i] if i < len(extents) else None


def tagged_front(bl: BufferList) -> tuple[int, bytes, Optional[Extent]]:
    """The u16 type tag ``bl`` starts with, then what
    :meth:`Plan.decode_front` takes: the caller picks the plan by tag."""
    buf, nxt = _front(bl)
    if len(buf) < 2:
        raise EncodeError("no type tag: fewer than 2 leading real bytes")
    return buf[0] | buf[1] << 8, buf, nxt


def compile_schema(
    schema: Schema, cls: Optional[type] = None, name: Optional[str] = None
) -> Plan:
    """Compile ``schema`` into a :class:`Plan`.

    With ``cls`` (a dataclass) the plan reads attributes and decodes by
    calling ``cls(**fields)``; schema fields that are not constructor
    parameters (a class-level type tag, a property synthesising a blob)
    are encoded from the attribute and dropped on decode.
    """
    name = name or (cls.__name__ if cls is not None else "payload")
    ns: dict[str, Any] = {
        "_cls": cls, "_DataBlob": DataBlob, "_EncodeError": EncodeError,
        "_join": b"".join,
    }
    ref = (lambda f: f"_o.{f}") if cls is not None else (lambda f: f)
    fields: list[str] = []

    # pack: statements, then one join over ``parts``
    pre: list[str] = []
    parts: list[str] = []
    # unpack: statements advancing ``_p`` through ``_b``
    post: list[str] = []
    blob = "None"
    took_blob = "False"

    run_fmt = ""
    run_args: list[str] = []     # pack side: expressions
    run_names: list[str] = []    # unpack side: targets
    run_conv: list[str] = []     # unpack side: conversions after the run

    def close_run() -> None:
        nonlocal run_fmt
        if not run_fmt:
            return
        s = struct.Struct("<" + run_fmt)
        k = len(ns)
        ns[f"_pack{k}"], ns[f"_unpack{k}"] = s.pack, s.unpack_from
        parts.append(f"_pack{k}({', '.join(run_args)})")
        post.append(f"{', '.join(run_names)}, = _unpack{k}(_b, _p)")
        post.append(f"_p += {s.size}")
        post.extend(run_conv)
        run_fmt = ""
        run_args.clear(), run_names.clear(), run_conv.clear()

    def fixed(fmt: str, arg: str, target: str) -> None:
        nonlocal run_fmt
        run_fmt += fmt
        run_args.append(arg)
        run_names.append(target)

    def sliced(field: str, raw: str, decode: str) -> None:
        """u32 length (fused into the run) + ``raw`` bytes."""
        fixed("I", f"len({raw})", "_n")
        close_run()
        parts.append(raw)
        post.append(f"_e = _p + _n; {field} = _b[_p:_e]{decode}; _p = _e")

    for i, (field, kind) in enumerate(schema):
        names = (field,) if isinstance(field, str) else field
        fields.extend(names)
        if kind in (OPT_BLOB, BLOB) and i != len(schema) - 1:
            raise ValueError(f"{name}.{field}: a blob must be the last field")
        if isinstance(kind, Scalar):
            if kind.conv is None:
                fixed(kind.fmt, ref(field), field)
            else:
                ns[f"_conv_{field}"] = kind.conv
                fixed(kind.fmt, ref(field), f"_raw_{field}")
                run_conv.append(f"{field} = _conv_{field}(_raw_{field})")
        elif kind is STR:
            pre.append(f"_s_{field} = {ref(field)}.encode()")
            sliced(field, f"_s_{field}", ".decode()")
        elif kind is BYTES:
            pre.append(f"_s_{field} = {ref(field)}")
            sliced(field, f"_s_{field}", "")
        elif isinstance(kind, Custom):
            close_run()
            k = len(ns)
            ns[f"_cpack{k}"], ns[f"_cunpack{k}"] = kind.pack, kind.unpack
            parts.append(f"_cpack{k}({', '.join(map(ref, names))})")
            target = field if isinstance(field, str) else f"({', '.join(names)})"
            post.append(f"{target}, _p = _cunpack{k}(_b, _p)")
        elif kind in (OPT_BLOB, BLOB):
            pre.append(f"_blob = {ref(field)}")
            blob = "_blob"
            take = [
                "if _x.__class__ is not _DataBlob:",
                f"    raise _EncodeError('{name}.{field}: no blob extent"
                " follows the real bytes')",
                f"{field} = _x",
            ]
            if kind is BLOB:
                took_blob = "True"
                close_run()
                post.extend(take)
            else:
                took_blob = "_has_blob"
                fixed("?", "_blob is not None", "_has_blob")
                close_run()
                post.append("if _has_blob:")
                post.extend("    " + line for line in take)
                post.append(f"else:\n    {field} = None")
        else:
            raise TypeError(f"{name}.{field}: unknown wire kind {kind!r}")
    close_run()

    if cls is not None:
        init = {f.name for f in dataclasses.fields(cls) if f.init}
        result = "_cls(%s)" % ", ".join(f"{f}={f}" for f in fields if f in init)
        params = "_o"
    else:
        result = "(%s)" % "".join(f"{f}, " for f in fields)
        params = ", ".join(fields)
    front = parts[0] if len(parts) == 1 else f"_join(({', '.join(parts)}))"
    lines = [f"def pack({params}):"]
    lines += [f"    {line}" for line in pre]
    lines += [f"    return {front}, {blob}", ""]
    lines += ["def unpack(_b, _p, _x):"]
    lines += [f"    {sub}" for line in post for sub in line.split("\n")]
    lines += [f"    return {result}, _p, {took_blob}", ""]
    return Plan(name, "\n".join(lines), ns)
