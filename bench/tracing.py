"""Per-layer tracing for the benchmark's traced run.

The layers are the modules of superalg.  Each public callable named in LAYERS
is replaced, for the length of the traced run, by a wrapper that records a
span (name, start, end, parent span, job id) and the size counts of its
arguments and result.  Spans stay in memory and are written out when the run
ends; self time is a span's duration minus the durations of its children.

A name imported with "from .x import y" is bound in several module
namespaces, and every binding is patched, or calls through the other names
would escape their span.  Methods are patched on their class, because
operators such as * and ** are looked up on the type.  Private helpers such
as the sign/merge routines are deliberately not wrapped: their cost lands in
the self time of the products that call them.
"""

import functools
import gzip
import sys
import time
from array import array

# "<module>.<callable>" -> the statistics reported for it.
LAYERS = (
    ("cli.load_json", ("calls", "self_s")),
    ("cli.render_report", ("calls", "self_s")),
    ("cli.build_parser", ("calls", "self_s")),
    ("linalg.sparse_rank", ("calls", "self_s", "rows", "nnz", "rank")),
    ("linalg.rank", ("calls", "self_s")),
    ("linalg.rref", ("calls", "self_s")),
    ("linalg.nullspace", ("calls", "self_s")),
    ("cartan.operator_columns", ("calls", "self_s")),
    ("cartan.d_F", ("calls", "self_s")),
    ("cartan.predicted_homology_dims", ("self_s",)),
    ("supermaps.apply_map", ("calls", "self_s", "terms_in", "terms_out")),
    ("supermaps.PolySuperFunc.__mul__", ("calls", "self_s", "terms_out")),
    ("supermaps.PolySuperFunc.__pow__", ("calls", "self_s")),
    ("supermaps.order_bound_check", ("calls", "self_s")),
    ("supermaps.filtration_check", ("self_s",)),
    ("supermaps.order_zero_criterion", ("self_s",)),
    ("sderham.super_d", ("calls", "self_s", "terms_in", "terms_out")),
    ("sderham.curvature", ("calls", "self_s")),
    ("sderham.cohomology_dims", ("calls", "self_s")),
    ("sderham.delta_kernel_check", ("calls", "self_s")),
    ("poly.Poly.__mul__", ("calls", "self_s")),
    ("exterior.ExtElem.wedge", ("calls", "self_s")),
    ("exterior.invert_unit", ("self_s",)),
    ("derivations.classify", ("self_s",)),
    ("derivations.reconstruct", ("self_s",)),
    ("derivations.ungraded_extend", ("calls", "self_s")),
    ("straighten.comp_product", ("calls", "self_s")),
    ("straighten.straighten", ("self_s",)),
    ("straighten.verify_straightening", ("self_s",)),
    ("straighten.family_is_commuting", ("self_s",)),
    ("liesuper.check_lie_superalgebra", ("self_s",)),
    ("liesuper.check_structure_conditions", ("self_s",)),
    ("liesuper.build_from_rho_B", ("self_s",)),
    ("jets.iterated_commutator", ("self_s",)),
    ("jets.nested_commutator", ("self_s",)),
    ("jets.factor_through_jet", ("self_s",)),
    ("jets.jet", ("self_s",)),
    ("supertensor.normalize_supersym", ("calls", "self_s")),
    ("supertensor.normalize_superext", ("calls", "self_s")),
)

# Ratios built from the counts and the span tree.
DERIVED = (
    "linalg.sparse_rank.pivot_ratio",
    "supermaps.PolySuperFunc.__pow__.per_apply_map",
    "sderham.curvature.per_super_d",
    "trace.overhead_ratio",
    "trace.coverage",
)

UNITS = {"self_s": "s", "pivot_ratio": "ratio", "per_apply_map": "ratio",
         "per_super_d": "ratio", "overhead_ratio": "ratio", "coverage": "ratio"}


def metric_names():
    """Every per-layer metric, in report order."""
    return [label + "." + stat for label, stats in LAYERS for stat in stats] + list(DERIVED)


def unit_of(name):
    return UNITS.get(name.rsplit(".", 1)[1], "count")


def _sparse_rank_sizes(args, result):
    rows = args[0]
    return {"rows": len(rows), "nnz": sum(len(r) for r in rows), "rank": result}


def _term_sizes(args, result):
    return {"terms_in": len(args[1].terms), "terms_out": len(result.terms)}


def _product_sizes(args, result):
    return {"terms_out": len(result.terms)}


# label -> counts measured from the arguments and the result at the boundary
SIZES = {
    "linalg.sparse_rank": _sparse_rank_sizes,
    "supermaps.apply_map": _term_sizes,
    "supermaps.PolySuperFunc.__mul__": _product_sizes,
    "sderham.super_d": _term_sizes,
}


class Tracer:
    """Span store plus the record of every binding it patched."""

    JOB = "job"

    def __init__(self):
        self.labels = [self.JOB]
        self.span_label = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.stack = []
        self.job_id = -1
        self.sizes = {}
        self.patched = []

    # ---------------------------------------------------------------- spans

    def _open(self, label_id):
        idx = len(self.span_label)
        self.span_label.append(label_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def run_job(self, job_id, fn, *args):
        """Run fn(*args) as the root span of one job."""
        self.job_id = job_id
        idx = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrap(self, label, fn):
        label_id = len(self.labels)
        self.labels.append(label)
        sizer = SIZES.get(label)
        sizes = self.sizes
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # sparse_rank takes any iterable of rows; count them without
            # consuming an iterator the call still needs
            if sizer is _sparse_rank_sizes and not isinstance(args[0], list):
                args = (list(args[0]),) + args[1:]
            idx = tracer._open(label_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if sizer is not None:
                for stat, n in sizer(args, result).items():
                    key = label + "." + stat
                    sizes[key] = sizes.get(key, 0) + n
            return result

        return traced

    # ------------------------------------------------------------- patching

    def install(self):
        """Patch every binding of every callable in LAYERS."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "superalg" or name.startswith("superalg.")]
        try:
            for label, _ in LAYERS:
                module, _, attr = label.partition(".")
                owner = sys.modules["superalg." + module]
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                    original = owner.__dict__[attr]
                    owners = [owner]
                else:
                    original = getattr(owner, attr)
                    owners = modules
                wrapper = self._wrap(label, original)
                for o in owners:
                    for name, value in list(vars(o).items()):
                        if value is original:
                            self.patched.append((o, name, original))
                            setattr(o, name, wrapper)
        except BaseException:
            self.restore()
            raise

    def restore(self):
        for owner, name, original in reversed(self.patched):
            setattr(owner, name, original)
        self.patched = []

    # -------------------------------------------------------------- summary

    def summary(self, scale, untraced_s):
        """Per-layer metrics.  Times are multiplied by scale, the yardstick
        normalization of the traced jobs; untraced_s is the normalized job
        time of the same jobs run without tracing."""
        n = len(self.span_label)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.labels)
        self_s = [0.0] * len(self.labels)
        job_s = top_s = 0.0
        pow_in_apply = curv_in_d = 0
        pow_id = self.labels.index("supermaps.PolySuperFunc.__pow__")
        apply_id = self.labels.index("supermaps.apply_map")
        curv_id = self.labels.index("sderham.curvature")
        d_id = self.labels.index("sderham.super_d")
        for i in range(n):
            lab = self.span_label[i]
            dur = self.end[i] - self.start[i]
            calls[lab] += 1
            self_s[lab] += dur - child[i]
            p = self.parent[i]
            if lab == 0:
                job_s += dur
            elif self.span_label[p] == 0:
                top_s += dur
            if lab == pow_id and self.span_label[p] == apply_id:
                pow_in_apply += 1
            elif lab == curv_id and self.span_label[p] == d_id:
                curv_in_d += 1
        ids = {label: i for i, label in enumerate(self.labels)}
        out = {}
        for label, stats in LAYERS:
            for stat in stats:
                if stat == "calls":
                    v = calls[ids[label]]
                elif stat == "self_s":
                    v = self_s[ids[label]] * scale
                else:
                    v = self.sizes.get(label + "." + stat, 0)
                out[label + "." + stat] = v
        ratio = lambda a, b: a / b if b else 0.0
        out["linalg.sparse_rank.pivot_ratio"] = ratio(
            self.sizes.get("linalg.sparse_rank.rank", 0),
            self.sizes.get("linalg.sparse_rank.rows", 0))
        out["supermaps.PolySuperFunc.__pow__.per_apply_map"] = ratio(pow_in_apply, calls[apply_id])
        out["sderham.curvature.per_super_d"] = ratio(curv_in_d, calls[d_id])
        out["trace.overhead_ratio"] = ratio(job_s * scale, untraced_s)
        out["trace.coverage"] = ratio(top_s, job_s)
        return out

    def write(self, path):
        """Write every span as one gzip'd TSV line."""
        with gzip.open(path, "wt") as f:
            f.write("job\tspan\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.span_label)):
                f.write("%d\t%d\t%d\t%s\t%.9f\t%.9f\n" % (
                    self.job[i], i, self.parent[i], self.labels[self.span_label[i]],
                    self.start[i], self.end[i]))
