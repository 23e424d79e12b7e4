"""SVG rendering: structure, whiskers, reference line, and determinism."""

import re

import pytest

from qdo.analysis import EffectReport
from qdo.chart import render_chart


class TestRenderChart:
    def test_four_bars_one_negative(self):
        groups = [
            EffectReport("G=0", 0.167), EffectReport("G=1", 0.295),
            EffectReport("Overall", -0.061), EffectReport("Causal", 0.231),
        ]
        svg = render_chart(groups, title="effects")
        assert svg.count("<rect") == 5  # background + 4 bars
        assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
        assert "-0.061" in svg

    def test_no_ci_no_whiskers(self):
        svg = render_chart([EffectReport("only", 0.2)])
        assert 'class="whisker"' not in svg

    def test_ci_draws_whiskers(self):
        svg = render_chart([EffectReport("g", 0.2, ci=(0.18, 0.22))])
        assert svg.count('class="whisker"') == 3  # stem + two caps

    def test_reference_line_dashed(self):
        svg = render_chart([EffectReport("g", 0.4)], reference=0.486)
        assert 'stroke-dasharray="6,4"' in svg
        assert "+0.486" in svg

    def test_deterministic_output(self):
        groups = [EffectReport("a", 0.1, ci=(0.05, 0.15)), EffectReport("b", -0.2)]
        assert render_chart(groups, title="t", reference=0.3) == render_chart(
            groups, title="t", reference=0.3
        )

    def test_labels_escaped(self):
        svg = render_chart([EffectReport("a<b&c", 0.1)])
        assert "a&lt;b&amp;c" in svg
        assert "a<b" not in svg

    def test_long_label_without_a_break_stays_on_one_line(self):
        # Over 14 characters with no comma or space: one label line, not split.
        svg = render_chart([EffectReport("Counterfactual_effect", 0.2)])
        labels = [line for line in svg.splitlines() if line.endswith("_effect</text>")]
        assert labels == [
            '<text x="110.000000" y="290" text-anchor="middle" font-family="sans-serif" '
            'font-size="10">Counterfactual_effect</text>'
        ]
        assert svg.count("<text") == 7  # five axis values, the bar's value, one label line

    @pytest.mark.parametrize("groups, reference", [
        ([EffectReport("a", 1e308), EffectReport("b", -1e308)], None),
        ([EffectReport("a", -1e308)], 1e308),
        ([EffectReport("a", 0.1, ci=(-1e308, 1e308))], None),
        ([EffectReport("a", 1.7e308)], None),
        ([EffectReport("a", 5e307)], None),
    ], ids=["effects", "reference", "ci", "padding", "grid"])
    def test_span_past_the_float_range_rejected(self, groups, reference):
        # The coordinates would be inf or nan. In the last two cases the span
        # itself is finite: the 8% padding, or the grid's product of the span
        # and 4, passes the float range.
        with pytest.raises(ValueError, match="span too wide to chart"):
            render_chart(groups, reference=reference)

    def test_span_just_inside_the_float_range_renders(self):
        svg = render_chart([EffectReport("a", -1e300)], reference=3e307)
        assert not re.search(r"(nan|inf)[\"<]", svg)  # no attribute or label is nan or inf

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            render_chart([])
