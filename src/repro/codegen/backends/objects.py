"""The object cache: where every compiled kernel object lives.

One :class:`ObjectCache` is one directory of shared objects; the process
build directory (:func:`ctoolchain.build_dir`) and each disk store are
instances of it, and nothing else publishes a ``.so`` or decides
whether one is fit to ``dlopen``.  An object is named by what it *is* —
its identity — and by what it *holds*::

    <prefix><program>-<serial|omp>-<toolchain>-<content>.so

``program`` digests the C text without its banner line (the label printed
there names a request, not a program), ``toolchain`` the compiler path and
the flag set actually used, ``content`` the file's own bytes.  So the two
objects of one source coexist, one program under two labels is one object,
and **every** lookup verifies the bytes against the name before a path can
reach ``ctypes.CDLL`` — a truncated ELF can SIGBUS the whole process inside
``dlopen`` instead of failing to load.  A mismatch is an absent object
(unlinked, rebuilt under the lock), never an error and never a load.  The
``<prefix><program>.c`` a builder compiled from stays beside its objects.
"""

from __future__ import annotations

import hashlib
import os
import re
import tempfile
from typing import Callable, Iterator, Optional, Tuple

from repro.core.config import knob
from repro.core.flock import atomic_write, single_flight
from repro.obs import metrics as obs_metrics

#: an identity: hex digests and the two kind words, nothing path-like.
IDENTITY = re.compile(r"[0-9a-f]{16}-(?:serial|omp)-[0-9a-f]{16}")
_OBJECT = re.compile(r"(%s)-([0-9a-f]{16})\.so$" % IDENTITY.pattern)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def program_digest(source: str) -> str:
    """Digest of a C translation unit, minus a first line that is wholly a
    comment (the renderer's banner)."""
    head, _, body = source.partition("\n")
    if head.startswith("/*") and head.find("*/") == len(head) - 2:
        source = body
    return _digest(source.encode("utf-8"))


def identity(program: str, kind: str, cc: str, flags: Tuple[str, ...]) -> str:
    """The name of object *kind* of *program* as built by ``cc flags``."""
    toolchain = _digest(("%s\x00%s" % (cc, " ".join(flags))).encode("utf-8"))
    return "%s-%s-%s" % (program, kind, toolchain)


def identity_of(path: str) -> Optional[str]:
    """The identity in an object's file name (of any instance), or ``None``."""
    match = _OBJECT.search(os.path.basename(path))
    return match.group(1) if match is not None else None


def _unlink(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


class ObjectCache:
    """The objects of one directory.  ``prefix`` starts every file name:
    ``ck_`` in the process instance, ``<key>.`` in a disk store — an entry's
    objects are a glob over its key and need no reference counting."""

    def __init__(self, directory, prefix: str = "ck_"):
        self.directory = os.fspath(directory)
        self.prefix = prefix

    def _named(self, heads) -> Iterator[Tuple[str, str]]:
        """``(path, recorded content hash)`` of every object whose identity
        starts with one of *heads*, in the order of *heads*."""
        try:
            names = sorted(os.listdir(self.directory))
        except OSError:
            return
        for head in heads:
            for name in names:
                if name.startswith(self.prefix + head):
                    match = _OBJECT.match(name, len(self.prefix))
                    if match is not None:
                        yield os.path.join(self.directory, name), match.group(2)

    def lookup(self, *heads: str) -> Optional[str]:
        """Path of the first intact object whose identity starts with one of
        *heads* (identities or prefixes of them, in preference order)."""
        for path, content in self._named(heads):
            try:
                with open(path, "rb") as handle:
                    intact = _digest(handle.read()) == content
            except OSError:
                continue
            if intact:
                return path
            _unlink(path)
        return None

    def build(
        self, ident: str, source: str, cc: Callable[[str, str], None], force=False
    ) -> str:
        """The path of object *ident*, compiled from *source* by
        ``cc(c_path, out_path)`` once across the processes sharing this
        directory (a waiter past ``$REPRO_LOCK_TIMEOUT`` builds privately).
        ``force`` rebuilds an object that verified but would not load."""
        base = os.path.join(self.directory, self.prefix)

        def make() -> str:
            c_path = "%s%s.c" % (base, ident[:16])
            # no fsync: compiled from right here, kept only for inspection
            atomic_write(c_path, source.encode("utf-8"), fsync=False)
            # unique temp per build: concurrent builders of one object each
            # write their own, and os.replace picks a winner
            fd, tmp = tempfile.mkstemp(
                dir=self.directory, prefix=".", suffix=".tmp.so"
            )
            os.close(fd)
            try:
                cc(c_path, tmp)
                with open(tmp, "rb") as handle:
                    final = "%s%s-%s.so" % (base, ident, _digest(handle.read()))
                os.replace(tmp, final)
            except BaseException:
                _unlink(tmp)
                raise
            # one object per identity: an earlier build of it that would
            # not load must not win the next lookup
            for path, _ in self._named((ident,)):
                if path != final:
                    _unlink(path)
            return final

        return single_flight(
            "%s%s.lock" % (base, ident),
            lambda: None if force else self.lookup(ident),
            make,
            knob("REPRO_LOCK_TIMEOUT"),
            lambda: obs_metrics.inc("toolchain.lock_timeouts"),
        )

    def adopt(self, ident: str, blob: bytes) -> str:
        """Publish *blob* — bytes the caller has verified — as object
        *ident*; a no-op when the same bytes are already here."""
        final = os.path.join(
            self.directory, "%s%s-%s.so" % (self.prefix, ident, _digest(blob))
        )
        if not os.path.exists(final):
            atomic_write(final, blob)
        return final

    def adopt_file(self, path: str) -> Optional[str]:
        """Adopt another instance's object, iff its bytes match its name
        (``None`` when it is unreadable, foreign or damaged)."""
        match = _OBJECT.search(os.path.basename(path))
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError:
            return None
        if match is None or _digest(blob) != match.group(2):
            return None
        return self.adopt(match.group(1), blob)
