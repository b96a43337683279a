"""Static and runtime validation of einsum assignments.

Catches the mistakes a user can make before they turn into wrong answers
(or out-of-bounds reads) deep inside a generated loop nest.  What is
checked where:

* at compile (:func:`repro.core.compiler.compile_kernel`) —
  :func:`validate_assignment`: one arity per tensor, no repeated or
  unbound output index, symmetry declared over modes that exist;
  :func:`validate_semiring`: the combine operator is annihilated by the
  sparse fill value;
* at prepare (:meth:`repro.core.compiler.CompiledKernel.prepare`, hence
  ``kernel(...)``, ``execution_plan`` and the daemon's ``execute``) —
  :func:`validate_inputs`: every input present, real dtype, the access's
  arity, one extent per index, equal sizes across symmetric modes.  It
  reads shapes and dtypes only, and the extents it returns are the ones
  the output shape is built from.

Not checked anywhere: that a tensor declared symmetric really holds
symmetric values (an O(nnz) check, open in ROADMAP 5(a)).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.frontend.einsum import Assignment

ModeParts = Mapping[str, Tuple[Tuple[int, ...], ...]]


class ValidationError(ValueError):
    """A malformed assignment / declaration / input."""


def validate_assignment(
    assignment: Assignment, symmetric_modes: Optional[ModeParts] = None
) -> None:
    """Structural checks that need no runtime data."""
    symmetric_modes = dict(symmetric_modes or {})

    ndims: Dict[str, int] = {}
    for acc in assignment.accesses + (assignment.lhs,):
        prev = ndims.setdefault(acc.tensor, acc.ndim)
        if prev != acc.ndim:
            raise ValidationError(
                "tensor %r is used with both %d and %d modes"
                % (acc.tensor, prev, acc.ndim)
            )

    if len(set(assignment.lhs.indices)) != len(assignment.lhs.indices):
        raise ValidationError(
            "output access %s repeats an index" % (assignment.lhs,)
        )

    out_only = set(assignment.lhs.indices) - {
        i for acc in assignment.accesses for i in acc.indices
    }
    if out_only:
        raise ValidationError(
            "output indices %s are bound by no input" % sorted(out_only)
        )

    for name, parts in symmetric_modes.items():
        if name not in ndims:
            raise ValidationError("symmetric tensor %r is not used" % name)
        for part in parts:
            for m in part:
                if not 0 <= m < ndims[name]:
                    raise ValidationError(
                        "symmetry of %r mentions mode %d outside range(%d)"
                        % (name, m, ndims[name])
                    )


def validate_semiring(
    assignment: Assignment, sparse_tensors: Sequence[str]
) -> None:
    """The combine operator's annihilator must equal the sparse fill.

    ``*`` with ``+=`` (fill 0 annihilates products) and ``+`` with
    ``min=``/``max=`` (the implicit infinite fill annihilates sums) are the
    valid pairs; anything else silently drops contributions from implicit
    zeros, so reject it loudly.
    """
    touches_sparse = any(
        acc.tensor in sparse_tensors for acc in assignment.accesses
    )
    if not touches_sparse:
        return
    valid = {("+", "*"), ("min", "+"), ("max", "+")}
    pair = (assignment.reduce_op, assignment.combine_op)
    if pair not in valid:
        raise ValidationError(
            "reduce %r with combine %r cannot iterate a sparse operand: "
            "the fill value does not annihilate the combine operator"
            % pair
        )


def validate_inputs(
    assignment: Assignment,
    symmetric_modes: ModeParts,
    tensors: Mapping[str, object],
) -> Dict[str, int]:
    """Runtime checks on an argument set (arrays, ``Tensor``s, ``COO``s or
    nested lists): presence, dtype, arity, consistent extents.  Returns
    the extent of every index.
    """
    extents: Dict[str, int] = {}
    for acc in assignment.accesses:
        if acc.tensor not in tensors:
            raise ValidationError("missing input tensor %r" % acc.tensor)
        arr = tensors[acc.tensor]
        kind = getattr(getattr(arr, "dtype", None), "kind", None)
        if kind is not None and kind not in "fiub":
            # complex / object / string payloads would fail deep inside a
            # generated loop (or worse, inside a ctypes call) — reject at
            # the door; real dtypes are cast to the kernel dtype at bind
            raise ValidationError(
                "tensor %r has non-real dtype %s (supported: float32/"
                "float64, plus int/bool inputs promoted at binding)"
                % (acc.tensor, arr.dtype)
            )
        shape = np.shape(arr)
        if len(shape) != acc.ndim:
            raise ValidationError(
                "tensor %r has %d modes, access %s expects %d"
                % (acc.tensor, len(shape), acc, acc.ndim)
            )
        for idx, extent in zip(acc.indices, shape):
            extent = int(extent)
            prev = extents.setdefault(idx, extent)
            if prev != extent:
                raise ValidationError(
                    "index %r has extent %d in %s but %d elsewhere"
                    % (idx, extent, acc, prev)
                )

    for name, parts in symmetric_modes.items():
        arr = tensors.get(name)
        if arr is None:
            continue
        shape = np.shape(arr)
        for part in parts:
            sizes = {shape[m] for m in part}
            if len(sizes) > 1:
                raise ValidationError(
                    "symmetric modes %s of %r have unequal sizes %s"
                    % (part, name, sorted(sizes))
                )
    return extents
