import hashlib
import re

import numpy as np
import pytest

from cutterkit import Trace, UsageError, emit_svg
from cutterkit.svg import PALETTE

SIX_DIGEST = "3c276101c40d430bcfafe4a07b29fbf347dcb67bacf99ed070131eafc318f041"


def two_d_trace(n=30):
    k = np.arange(n + 1, dtype=float)
    iterates = np.stack([np.cos(k / 3.0) * 0.9**k, np.sin(k / 3.0) * 0.9**k],
                        axis=1)
    errs = list(np.linalg.norm(iterates, axis=1))
    return Trace(iterates=iterates, residuals=[0.1] * n, step_sizes=[1.0] * n,
                 solution_errors=errs)


def polyline_point_counts(path):
    text = open(path).read()
    return [len(pts.split()) for pts in
            re.findall(r'<polyline points="([^"]*)"', text)]


def test_trajectory_svg_point_counts(tmp_path):
    traces = [two_d_trace(), two_d_trace()]
    out = emit_svg(traces, str(tmp_path / "t.svg"), kind="trajectory",
                   labels=["a", "b"])
    counts = polyline_point_counts(out)
    assert counts == [31, 31]
    text = open(out).read()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    assert ">a<" in text and ">b<" in text


def test_error_svg(tmp_path):
    out = emit_svg([two_d_trace()], str(tmp_path / "e.svg"), kind="error")
    assert polyline_point_counts(out) == [31]


def test_single_point_trace_is_valid(tmp_path):
    tr = Trace(iterates=np.array([[1.0, 2.0]]), residuals=[], step_sizes=[])
    out = emit_svg([tr], str(tmp_path / "p.svg"), kind="trajectory")
    assert polyline_point_counts(out) == [1]


def test_empty_trace_list_is_usage_error(tmp_path):
    with pytest.raises(UsageError):
        emit_svg([], str(tmp_path / "x.svg"))


def test_non_2d_traces_are_skipped_with_warning(tmp_path):
    tr3 = Trace(iterates=np.zeros((4, 3)), residuals=[0.0] * 3,
                step_sizes=[1.0] * 3)
    with pytest.warns(UserWarning) as record:
        out = emit_svg([tr3], str(tmp_path / "skip.svg"), kind="trajectory")
    assert out is None
    messages = [str(w.message) for w in record]
    assert len(messages) == 2 and "skipped" in messages[0]
    assert messages[1] == "nothing to plot; no SVG written"
    with pytest.warns(UserWarning):
        out = emit_svg([tr3, two_d_trace()], str(tmp_path / "mix.svg"),
                       kind="trajectory")
    assert polyline_point_counts(out) == [31]


def test_unknown_kind_rejected(tmp_path):
    with pytest.raises(UsageError):
        emit_svg([two_d_trace()], str(tmp_path / "x.svg"), kind="contour")


def test_svg_output_is_deterministic(tmp_path):
    a = emit_svg([two_d_trace()], str(tmp_path / "a.svg"), kind="trajectory")
    b = emit_svg([two_d_trace()], str(tmp_path / "b.svg"), kind="trajectory")
    assert open(a).read() == open(b).read()


def test_palette_repeats_after_six_traces(tmp_path):
    # zipped with the six colours, 8 traces gave 6 polylines and 6 entries
    labels = [f"m{i}" for i in range(8)]
    traces = [two_d_trace(20 + i) for i in range(8)]
    colours = PALETTE + PALETTE[:2]
    for kind in ("trajectory", "error"):
        out = emit_svg(traces, str(tmp_path / f"{kind}.svg"), kind=kind,
                       labels=labels)
        assert polyline_point_counts(out) == [21 + i for i in range(8)]
        text = open(out).read()
        assert re.findall(r'<polyline [^>]*stroke="([^"]*)"', text) == colours
        assert re.findall(r'fill="(#[^"]*)">(m[0-9])</text>', text) == \
            list(zip(colours, labels))


def test_six_traces_keep_their_bytes(tmp_path):
    # the digest of the output before the palette cycled and the text
    # elements shared one template
    out = emit_svg([two_d_trace(10 + i) for i in range(6)],
                   str(tmp_path / "six.svg"), kind="trajectory", title="six")
    assert hashlib.sha256(open(out, "rb").read()).hexdigest() == SIX_DIGEST


def test_emit_svg_creates_its_directory(tmp_path):
    out = emit_svg([two_d_trace()], str(tmp_path / "a" / "b" / "t.svg"))
    assert open(out, "rb").read().count(b"\r") == 0
