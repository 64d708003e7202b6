"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public functions of each layer (listed in
:data:`LAYERS`) with span recorders, changing nothing under ``src/``.
A span is ``(layer, start, end, parent)``; spans are kept in memory and
reduced at the end to per-layer call counts and *self* time (a span's
duration minus the part its child spans cover).  Self times of all
spans plus the window time no span covers tile the campaign window.

:data:`LAYERS` also records, for each layer, the end-to-end metric it
should move and the workloads it works on; ``"only"`` means the layer
does no work on any other workload (the coverage test checks both).
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Layer:
    """One traced layer: what it wraps, what it moves, where it works."""

    name: str
    targets: tuple[str, ...]  # "module:Class.method" or "module:function"
    moves: str
    works_on: tuple[str, ...]
    only: bool = False  # zero on every workload outside ``works_on``


ALL = ("evm-campaign", "avm-campaign", "evm-batched")
_SYSTEM = "repro.core.system:ProofOfLocationSystem."
_BATCH = "repro.core.batch:BatchAggregator."

LAYERS = (
    Layer("core.onboard", tuple(_SYSTEM + m for m in ("register_prover", "register_witness", "register_verifier")),
          "proofs_per_s_norm, peak_rss_mib", ALL),
    Layer("core.prove", (_SYSTEM + "request_location_proof",), "proofs_per_s_norm", ALL),
    Layer("core.submit", (_SYSTEM + "submit_many", _SYSTEM + "submit_batched",
                          _BATCH + "poll", _BATCH + "flush_all", _BATCH + "drain"), "proofs_per_s_norm", ALL),
    Layer("core.verify", (_SYSTEM + "fund_contracts", _SYSTEM + "verify_many", _SYSTEM + "light_verify_many"),
          "proofs_per_s_norm", ALL),
    Layer("core.batch.add", (_BATCH + "add",), "proofs_per_s_norm", ("evm-batched",), only=True),
    Layer("simnet.step", ("repro.simnet.events:EventQueue.step",), "proofs_per_s_norm", ALL),
    Layer("chain.submit", ("repro.chain.base:BaseChain.submit",), "proofs_per_s_norm", ALL),
    Layer("chain.evm.execute", ("repro.chain.ethereum.evm:EVM.execute",), "proofs_per_s_norm",
          ("evm-campaign", "evm-batched"), only=True),
    Layer("chain.avm.execute", ("repro.chain.algorand.avm:AVM.execute",), "proofs_per_s_norm",
          ("avm-campaign",), only=True),
    Layer("chain.sortition", ("repro.chain.algorand.consensus:Sortition.run_round",), "proofs_per_s_norm",
          ("avm-campaign",), only=True),
    Layer("crypto.sign", ("repro.crypto.keys:KeyPair.sign",), "proofs_per_s_norm", ALL),
    Layer("crypto.verify", ("repro.crypto.keys:PublicKey.verify",), "proofs_per_s_norm", ALL),
    Layer("crypto.vrf", ("repro.crypto.vrf:VRFKeyPair.evaluate", "repro.crypto.vrf:verify_vrf"), "proofs_per_s_norm",
          ("avm-campaign",), only=True),
    # Every sealed block builds its transaction root too, so this layer
    # works on all workloads; batch roots add to it on evm-batched.
    Layer("crypto.merkle.build", ("repro.crypto.merkle:MerkleTree.__init__",), "proofs_per_s_norm", ALL),
    Layer("crypto.merkle.verify", ("repro.crypto.merkle:MerkleProof.verify",), "proofs_per_s_norm",
          ("evm-batched",), only=True),
    Layer("dht", tuple("repro.dht.hypercube:HypercubeDHT." + m for m in ("lookup", "register_contract", "append_cid")),
          "proofs_per_s_norm", ALL),
    Layer("ipfs.add", ("repro.ipfs.network:IpfsNetwork.add",), "proofs_per_s_norm", ALL),
)

#: modules whose import pulls in every module a wrapped function is
#: imported into by name (so function wrappers reach those names too)
_PRELOAD = ("repro.core.system", "repro.core.batch", "repro.chain")


class Tracer:
    """Records spans around every target in :data:`LAYERS` while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.hops = 0  # DHT routing hops over every recorded dht span
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        for module in _PRELOAD:
            importlib.import_module(module)
        for layer in LAYERS:
            for target in layer.targets:
                module_name, qualname = target.split(":")
                module = importlib.import_module(module_name)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, self._wrap(layer.name, original))
                    continue
                # A function is looked up through every module that
                # imported it by name: patch each of those references.
                original = getattr(module, qualname)
                wrapped = self._wrap(layer.name, original)
                for loaded in list(sys.modules.values()):
                    if getattr(loaded, "__name__", "").startswith("repro") and vars(loaded).get(qualname) is original:
                        self._patch(loaded, qualname, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        """Drop every span recorded so far (the window starts now)."""
        self.spans.clear()
        self._stack.clear()
        self.hops = 0

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        count_hops = name == "dht"
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count_hops:
                tracer.hops += result.hops
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    # -- reduction --------------------------------------------------------------------

    def summary(self, window_s: float) -> dict[str, float]:
        """Per-layer ``.calls`` / ``.self_s`` plus the tiling residue.

        Raises ValueError if the spans do not tile the window: self
        times plus unattributed time must equal it, with no span outside
        it and none shorter than its children.
        """
        child_time = [0.0] * len(self.spans)
        calls = {layer.name: 0 for layer in LAYERS}
        self_s = {layer.name: 0.0 for layer in LAYERS}
        covered = 0.0
        for span in self.spans:
            if span is None:
                raise ValueError("a span was still open when the window closed")
        for index in range(len(self.spans) - 1, -1, -1):
            name, start, end, parent = self.spans[index]
            duration = end - start
            if child_time[index] > duration + 1e-9:
                raise ValueError(f"{name} span is shorter than the spans nested in it")
            calls[name] += 1
            self_s[name] += duration - child_time[index]
            if parent >= 0:
                child_time[parent] += duration
            else:
                covered += duration
        unattributed = window_s - covered
        tiled = sum(self_s.values()) + unattributed
        if abs(tiled - window_s) > 1e-6 * max(1.0, window_s) or unattributed < -1e-6:
            raise ValueError(f"layer self times tile {tiled:.6f} s of a {window_s:.6f} s window")
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer.name}.calls"] = calls[layer.name]
            out[f"{layer.name}.self_s"] = self_s[layer.name]
        out["dht.hops_mean"] = self.hops / calls["dht"] if calls["dht"] else 0.0
        out["trace.unattributed_ratio"] = unattributed / window_s
        return out
