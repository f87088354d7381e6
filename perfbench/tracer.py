"""Per-layer tracing of chevlab from outside the program.

``Tracer.install`` replaces public functions and methods of the chevlab
modules with timing wrappers, in every module namespace that holds them
(``prooflab`` imports ``mul_terms`` by name, for instance, so patching
``exactring`` alone would miss its calls).  ``uninstall`` puts the originals
back.

Every wrapper keeps a call count, inclusive time and self time (inclusive
time minus the time of wrapped calls made inside it).  Coarse entry points
also record one span each -- name, start, end, parent span and job id --
kept in memory until ``write_spans``.  Hot functions such as
``FiniteGroupTable.mul`` (12.4M calls on the finite workload) and
``mul_terms`` only accumulate in place.
"""

from __future__ import annotations

import functools
import json
import time

clock = time.perf_counter

# (module, attribute, stat name); an attribute "Class.method" patches the
# class.  Stats of one layer share the layer's prefix.
HOT = (
    ("exactring", "mul_terms", "exactring.mul_terms"),
    ("exactring", "reduce_terms", "exactring.reduce_terms"),
    ("exactring", "add_terms", "exactring.add_sub_terms"),
    ("exactring", "sub_terms", "exactring.add_sub_terms"),
    ("exactring", "RingElement.__add__", "exactring.ring_op"),
    ("exactring", "RingElement.__radd__", "exactring.ring_op"),
    ("exactring", "RingElement.__sub__", "exactring.ring_op"),
    ("exactring", "RingElement.__neg__", "exactring.ring_op"),
    ("exactring", "RingElement.__mul__", "exactring.ring_op"),
    ("exactring", "RingElement.__rmul__", "exactring.ring_op"),
    ("chevgroup", "AdjointMatrix.__mul__", "chevgroup.matmul"),
    ("chevgroup", "evaluate_word", "chevgroup.evaluate_word"),
    ("chevgroup", "parse_word", "chevgroup.parse_word"),
    ("chevgroup", "commutator_relation", "chevgroup.commutator_relation"),
    ("chevgroup", "trace_poly", "chevgroup.trace_poly"),
    ("prooflab", "IdentityRecord.mutate", "prooflab.mutate"),
    ("shacheck", "FiniteGroupTable.mul", "shacheck.mul"),
    ("shacheck", "extend_homomorphism", "shacheck.extend_homomorphism"),
)
SPANS = (
    ("cli", "dispatch", "cli.dispatch"),
    ("chevgroup", "build_basis", "chevgroup.build_basis"),
    ("prooflab", "entry_chain_g2", "prooflab.entry_chain_g2"),
    ("prooflab", "run_catalog", "prooflab.run_catalog"),
    ("prooflab", "builtin_catalog", "prooflab.builtin_catalog"),
    ("prooflab", "run_identity", "prooflab.run_identity"),
    ("prooflab", "centralizer_check", "prooflab.centralizer_check"),
    ("prooflab", "centralizer_bruteforce", "prooflab.centralizer_bruteforce"),
    ("shacheck", "sha_report", "shacheck.sha_report"),
    ("shacheck", "generate_group", "shacheck.generate_group"),
    ("shacheck", "conjugacy_classes", "shacheck.conjugacy_classes"),
    ("shacheck", "class_preserving_endos", "shacheck.class_preserving_endos"),
    ("shacheck", "inner_endomorphisms", "shacheck.inner_endomorphisms"),
    ("decomp", "bruhat_bruteforce", "decomp.bruhat_bruteforce"),
)
MODULES = ("exactring", "rootsys", "chevgroup", "decomp", "prooflab",
           "shacheck", "cli")

# The reported per-layer metrics: name -> (unit, better).
METRICS = {
    "exactring.mul_terms.calls": ("count", "lower"),
    "exactring.mul_terms.self_s": ("s", "lower"),
    "exactring.reduce_terms.calls": ("count", "lower"),
    "exactring.reduce_terms.self_s": ("s", "lower"),
    "exactring.reduce_terms.rewrites": ("count", "lower"),
    "exactring.add_sub_terms.calls": ("count", "lower"),
    "exactring.add_sub_terms.self_s": ("s", "lower"),
    "exactring.ring_op.calls": ("count", "lower"),
    "exactring.ring_op.self_s": ("s", "lower"),
    "chevgroup.matmul.calls": ("count", "lower"),
    "chevgroup.matmul.self_s": ("s", "lower"),
    "chevgroup.evaluate_word.calls": ("count", "lower"),
    "chevgroup.evaluate_word.self_s": ("s", "lower"),
    "chevgroup.build_basis.s": ("s", "lower"),
    "prooflab.entry_chain_g2.s": ("s", "lower"),
    "prooflab.run_identity.calls": ("count", "lower"),
    "prooflab.self_s": ("s", "lower"),
    "prooflab.centralizer_bruteforce.s": ("s", "lower"),
    "shacheck.generate_group.s": ("s", "lower"),
    "shacheck.group_order": ("count", "higher"),
    "shacheck.conjugacy_classes.s": ("s", "lower"),
    "shacheck.class_preserving_endos.s": ("s", "lower"),
    "shacheck.inner_endomorphisms.s": ("s", "lower"),
    "shacheck.extend_homomorphism.calls": ("count", "lower"),
    "shacheck.extend_homomorphism.accept_ratio": ("ratio", "higher"),
    "shacheck.mul.calls": ("count", "lower"),
    "shacheck.mul.self_s": ("s", "lower"),
    "shacheck.mul.distinct": ("count", "lower"),
    "decomp.bruhat_bruteforce.calls": ("count", "lower"),
    "decomp.bruhat_bruteforce.self_s": ("s", "lower"),
    "decomp.bruhat.products": ("count", "lower"),
    "decomp.bruhat.useful_ratio": ("ratio", "higher"),
    "cli.dispatch.calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
}


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.stats = {}
        self.frames = [[0.0, None]]        # [time of wrapped children, name]
        self.spans = []
        self.open_spans = [None]
        self.job = None
        self.rewrites = 0                  # mul_terms calls inside reduce_terms
        self.bruhat_depth = 0
        self.bruhat_products = 0           # matmuls inside bruhat_bruteforce
        self.bruhat_found = 0
        self.endo_accepted = 0
        self.group_order = 0
        self.mul_distinct = 0
        self._tables = []
        self._undo = []

    # -- wrappers ----------------------------------------------------------

    def _stat(self, name) -> Stat:
        return self.stats.setdefault(name, Stat())

    def _hot(self, name, fn, after=None):
        stat = self._stat(name)
        frames = self.frames

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, name]
            frames.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                frames.pop()
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - frame[0]
                frames[-1][0] += dt
            if after is not None:
                after(frames[-1][1], result)
            return result
        return wrapper

    def _span(self, name, fn, enter=None, after=None):
        inner = self._hot(name, fn, after)
        spans, open_spans = self.spans, self.open_spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(spans), "name": name, "parent": open_spans[-1],
                    "job": self.job, "start": clock()}
            spans.append(span)
            open_spans.append(span["id"])
            if enter is not None:
                enter(1)
            try:
                return inner(*args, **kwargs)
            finally:
                if enter is not None:
                    enter(-1)
                open_spans.pop()
                span["end"] = clock()
        return wrapper

    # -- counters measured where the work happens ---------------------------

    def _after_mul_terms(self, parent, result):
        if parent == "exactring.reduce_terms":
            self.rewrites += 1

    def _after_matmul(self, parent, result):
        if self.bruhat_depth:
            self.bruhat_products += 1

    def _enter_bruhat(self, step):
        self.bruhat_depth += step

    def _after_bruhat(self, parent, result):
        self.bruhat_found += 1

    def _after_extend(self, parent, result):
        if not isinstance(result, str):      # shacheck.REJECT is a string
            self.endo_accepted += 1

    def _after_generate(self, parent, result):
        self.group_order += len(result)
        self._tables.append(result)

    def end_job(self):
        """Count the product memos of the groups the finished job built."""
        for table in self._tables:
            self.mul_distinct += len(getattr(table, "_mul_memo", ()))
        self._tables.clear()

    # -- install / uninstall -----------------------------------------------

    def install(self, package):
        modules = {name: getattr(package, name) for name in MODULES}
        after = {"exactring.mul_terms": self._after_mul_terms,
                 "chevgroup.matmul": self._after_matmul,
                 "decomp.bruhat_bruteforce": self._after_bruhat,
                 "shacheck.extend_homomorphism": self._after_extend,
                 "shacheck.generate_group": self._after_generate}
        enter = {"decomp.bruhat_bruteforce": self._enter_bruhat}
        for kind, table in (("hot", HOT), ("span", SPANS)):
            for module, attr, name in table:
                owner = modules[module]
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                if kind == "hot":
                    wrapped = self._hot(name, original, after.get(name))
                else:
                    wrapped = self._span(name, original, enter.get(name),
                                         after.get(name))
                targets = [owner] if isinstance(owner, type) else [
                    m for m in modules.values()
                    if m.__dict__.get(attr) is original]
                for target in targets:
                    self._undo.append((target, attr, original))
                    setattr(target, attr, wrapped)

    def uninstall(self):
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        def stat(name):
            return self.stats.get(name) or Stat()

        def self_sum(prefix):
            return sum(s.self_time for n, s in self.stats.items()
                       if n.startswith(prefix))

        out = {}
        for name in ("exactring.mul_terms", "exactring.reduce_terms",
                     "exactring.add_sub_terms", "exactring.ring_op",
                     "chevgroup.matmul", "chevgroup.evaluate_word",
                     "shacheck.mul", "decomp.bruhat_bruteforce"):
            out[name + ".calls"] = stat(name).calls
            out[name + ".self_s"] = stat(name).self_time
        for name in ("chevgroup.build_basis", "prooflab.entry_chain_g2",
                     "prooflab.centralizer_bruteforce",
                     "shacheck.generate_group", "shacheck.conjugacy_classes",
                     "shacheck.class_preserving_endos",
                     "shacheck.inner_endomorphisms"):
            out[name + ".s"] = stat(name).total
        extend = stat("shacheck.extend_homomorphism").calls
        out.update({
            "exactring.reduce_terms.rewrites": self.rewrites,
            "prooflab.run_identity.calls": stat("prooflab.run_identity").calls,
            "prooflab.self_s": self_sum("prooflab."),
            "shacheck.group_order": self.group_order,
            "shacheck.extend_homomorphism.calls": extend,
            "shacheck.extend_homomorphism.accept_ratio":
                self.endo_accepted / extend if extend else 0.0,
            "shacheck.mul.distinct": self.mul_distinct,
            "decomp.bruhat.products": self.bruhat_products,
            "decomp.bruhat.useful_ratio":
                self.bruhat_found / self.bruhat_products
                if self.bruhat_products else 0.0,
            "cli.dispatch.calls": stat("cli.dispatch").calls,
            "cli.self_s": stat("cli.dispatch").self_time,
        })
        return {name: out[name] for name in METRICS}

    def write_spans(self, path):
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
