"""Outside-in span tracing of the ``repro`` layers for the traced run.

The benchmark's traced run patches layer entry points of ``src/repro``
from the outside (the program itself carries no tracing code).  A
patched call records a span only when it crosses into a different
layer than the innermost open span, so recursion and calls inside one
layer stay cheap.  Each span holds its name, layer, start, end, parent
span and request: the first *request root* on the stack (a browser
visit, a host exchange, a storage I/O, a node update) gives the request
id every nested span shares.

A layer's self time is its spans' durations minus the time of their
child spans.  Summed over every layer it equals the time covered by
root spans, so ``self times + unattributed = timed wall time`` holds
by construction; the unattributed share is what the trace missed.
Spans stay in memory while the run measures and are written as JSONL
when it ends.

Generator functions (kernel processes such as a storm session) are
traced per resumption: each ``send``/``throw`` into the generator is
one span, so a process's work lands in its own layer rather than in
the event kernel's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

#: Layer entry points, outermost first.  Each row: module, attribute
#: path in it, layer name, whether the call starts a request, and the
#: index of the positional argument whose length counts as bytes.
ENTRY_POINTS = (
    ("repro.sim.kernel", "EventKernel.run", "sim", False, None),
    ("repro.sim.resources", "Server.process", "sim", False, None),
    ("repro.fleet.workload", "FleetWorkload.open_loop", "fleet", False, None),
    ("repro.fleet.workload", "FleetWorkload._session", "fleet", False, None),
    ("repro.fleet.mesh", "MeshWorkload.open_loop", "fleet", False, None),
    ("repro.fleet.mesh", "MeshWorkload._session", "fleet", False, None),
    ("repro.fleet.mesh", "GatewayMesh._deliver", "fleet", False, None),
    ("repro.fleet.gateway", "FleetGateway._handle", "fleet", False, None),
    ("repro.fleet.gateway", "FleetGateway.attest_backend", "fleet", True, None),
    ("repro.fleet.provision", "FleetProvisioner.provision", "fleet.provision",
     False, None),
    ("repro.core.browser", "Browser.navigate", "core", True, None),
    ("repro.core.kds_client", "KdsClient.get_vcek", "core", False, None),
    ("repro.attest.engine", "AttestationVerifier.verify", "attest", False, None),
    ("repro.attest.engine", "AttestationVerifier.verify_batch", "attest",
     False, None),
    ("repro.net.http", "HttpClient.request", "net", False, None),
    ("repro.net.simnet", "Host.request", "net", True, None),
    ("repro.net.simnet", "Network.exchange", "net", False, None),
    ("repro.net.tls", "tls_connect", "net.tls", False, None),
    ("repro.net.tls", "TlsConnection.request", "net.tls", False, None),
    ("repro.net.tls", "TlsServer.handle", "net.tls", False, None),
    ("repro.crypto.encoding", "encode", "crypto.encoding", False, None),
    ("repro.crypto.encoding", "decode", "crypto.encoding", False, None),
    ("repro.crypto.modes", "AeadCipher.seal", "crypto.aead", False, 2),
    ("repro.crypto.modes", "AeadCipher.open", "crypto.aead", False, 2),
    ("repro.crypto.modes", "XtsCipher.encrypt", "crypto.xts", False, 1),
    ("repro.crypto.modes", "XtsCipher.decrypt", "crypto.xts", False, 1),
    ("repro.crypto.sigcache", "SignatureVerificationCache.verify",
     "crypto.ecdsa", False, None),
    ("repro.crypto.ecdsa", "EcdsaPublicKey.verify", "crypto.ecdsa", False, None),
    ("repro.crypto.ecdsa", "EcdsaPrivateKey.sign", "crypto.ecdsa", False, None),
    ("repro.storage.dm", "DmVolume.read_block", "storage", True, None),
    ("repro.storage.dm", "DmVolume.read_blocks", "storage", True, None),
    ("repro.storage.dm", "DmVolume.write_block", "storage", True, None),
    ("repro.storage.dm", "DmVolume.write_blocks", "storage", True, None),
    ("repro.storage.dm", "CachedVerityDevice.read_block", "storage.verity",
     False, None),
    ("repro.storage.dm", "CryptTarget.read_block", "storage.crypt", False, None),
    ("repro.storage.dm", "CryptTarget.read_blocks", "storage.crypt", False, None),
    ("repro.storage.dm", "CryptTarget.write_block", "storage.crypt", False, None),
    ("repro.storage.dm", "CryptTarget.write_blocks", "storage.crypt", False,
     None),
    ("repro.build.image_builder", "build_revelio_image", "build", False, None),
    ("repro.build.delta", "compute_delta", "build", False, None),
    ("repro.build.channel", "UpdateClient.apply", "build.update", True, None),
)

#: Every layer the traced run reports a self time for.
LAYERS = tuple(sorted({row[2] for row in ENTRY_POINTS}))

#: Spans kept in memory (and written out); later ones are only counted.
MAX_SPANS = 250_000


class SpanTracer:
    """Records layer-crossing spans while :attr:`active` is set."""

    def __init__(self):
        self.active = False
        #: Open spans, innermost last: [layer, start, child_s, id, request].
        self._stack: list = []
        self._next_id = 0
        #: Kept spans: (id, name, layer, start, end, parent, request).
        self.spans: list = []
        self.dropped = 0
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.bytes: Counter = Counter()
        #: Total duration of root spans (spans with no open parent).
        self.covered_s = 0.0
        self._patches: list = []

    # -- recording ---------------------------------------------------

    def _push(self, layer: str, request_root: bool) -> list:
        span_id = self._next_id
        self._next_id = span_id + 1
        stack = self._stack
        request = stack[-1][4] if stack else None
        if request is None and request_root:
            request = span_id
        frame = [layer, 0.0, 0.0, span_id, request]
        stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def _pop(self, frame: list, name: str) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        layer, start, child_s, span_id, request = frame
        duration = end - start
        self.self_s[layer] += duration - child_s
        if stack:
            parent = stack[-1]
            parent[2] += duration
            parent_id = parent[3]
        else:
            self.covered_s += duration
            parent_id = None
        self.calls[name] += 1
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, name, layer, start, end, parent_id, request))
        else:
            self.dropped += 1

    def _crosses(self, layer: str) -> bool:
        return self.active and (not self._stack or self._stack[-1][0] != layer)

    # -- wrapping ----------------------------------------------------

    def _wrap_call(self, fn, name, layer, request_root, size_arg):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._crosses(layer):
                return fn(*args, **kwargs)
            if size_arg is not None and len(args) > size_arg:
                tracer.bytes[layer] += len(args[size_arg])
            frame = tracer._push(layer, request_root)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._pop(frame, name)

        return traced

    def _wrap_generator(self, fn, name, layer, request_root):
        tracer = self

        def resume(generator, value, error):
            if not tracer._crosses(layer):
                if error is not None:
                    return generator.throw(error)
                return generator.send(value)
            frame = tracer._push(layer, request_root)
            try:
                if error is not None:
                    return generator.throw(error)
                return generator.send(value)
            finally:
                tracer._pop(frame, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            generator = fn(*args, **kwargs)
            value, error = None, None
            while True:
                try:
                    command = resume(generator, value, error)
                except StopIteration as stop:
                    return stop.value
                value, error = None, None
                try:
                    value = yield command
                except GeneratorExit:
                    generator.close()
                    raise
                except BaseException as exc:  # noqa: BLE001 - forwarded into the process
                    error = exc

        return traced

    def install(self) -> None:
        """Patch every entry point.  Call before the world under test is
        built: handlers bound at construction keep what they captured."""
        repro_modules = [
            module for name, module in sorted(sys.modules.items())
            if name == "repro" or name.startswith("repro.")
        ]
        for module_name, path, layer, request_root, size_arg in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = module
            *owners, attribute = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = owner.__dict__[attribute]
            if inspect.isgeneratorfunction(original):
                wrapped = self._wrap_generator(original, path, layer, request_root)
            else:
                wrapped = self._wrap_call(original, path, layer, request_root,
                                          size_arg)
            self._patch(owner, attribute, wrapped)
            if owner is module:
                # A function imported by name elsewhere is a separate
                # binding: patch every module that holds it.
                for other in repro_modules:
                    for key, value in list(vars(other).items()):
                        if value is original and other is not module:
                            self._patch(other, key, wrapped)

    def _patch(self, owner, attribute, replacement) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        """Restore every patched binding."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- results -----------------------------------------------------

    def summary(self, wall_s: float) -> dict:
        """Per-layer self time and call counts for a timed section of
        *wall_s* seconds, plus the share no span covered."""
        return {
            "wall_s": wall_s,
            "self_s": {layer: self.self_s.get(layer, 0.0) for layer in LAYERS},
            "covered_s": self.covered_s,
            "unattributed_share": (wall_s - self.covered_s) / wall_s,
            "calls": dict(sorted(self.calls.items())),
            "bytes": dict(sorted(self.bytes.items())),
            "spans": self._next_id,
            "spans_dropped": self.dropped,
        }

    def write_jsonl(self, path, wall_s: float) -> None:
        """Write the kept spans (times relative to the earliest start) and
        a closing summary record."""
        origin = min((span[3] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as out:
            for span_id, name, layer, start, end, parent, request in self.spans:
                out.write(json.dumps({
                    "id": span_id, "name": name, "layer": layer,
                    "start": round(start - origin, 9),
                    "end": round(end - origin, 9),
                    "parent": parent, "request": request,
                }) + "\n")
            out.write(json.dumps({"summary": self.summary(wall_s)}) + "\n")
