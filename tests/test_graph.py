"""Tests for the operator DAG representation."""

import pytest

from repro.core import graph as g
from repro.core.operators import FunctionTransformer, IdentityTransformer


def _chain(n):
    """input -> t1 -> ... -> tn"""
    node = g.pipeline_input()
    inp = node
    for i in range(n):
        node = g.OpNode(g.TRANSFORMER, FunctionTransformer(lambda x: x, f"t{i}"),
                        (node,))
    return inp, node


class TestNodes:
    def test_ids_unique(self):
        a = g.pipeline_input()
        b = g.pipeline_input()
        assert a.id != b.id

    def test_pipeline_input_flag(self):
        assert g.pipeline_input().is_pipeline_input
        assert not g.source("data").is_pipeline_input

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown node kind"):
            g.OpNode("mystery", None)

    def test_default_labels(self):
        t = g.OpNode(g.TRANSFORMER, IdentityTransformer(),
                     (g.pipeline_input(),))
        assert t.label == "IdentityTransformer"

    def test_weight_from_op(self):
        class Weighted:
            weight = 7

            def apply(self, x):
                return x

        node = g.OpNode(g.TRANSFORMER, Weighted(), (g.pipeline_input(),))
        assert node.weight == 7

    def test_weight_defaults_to_one(self):
        assert g.pipeline_input().weight == 1


class TestTraversal:
    def test_ancestors_topological(self):
        inp, sink = _chain(5)
        order = g.ancestors([sink])
        assert order[0] is inp
        assert order[-1] is sink
        assert len(order) == 6
        positions = {node.id: i for i, node in enumerate(order)}
        for node in order:
            for p in node.parents:
                assert positions[p.id] < positions[node.id]

    def test_ancestors_shared_diamond(self):
        inp = g.pipeline_input()
        a = g.OpNode(g.TRANSFORMER, IdentityTransformer(), (inp,))
        left = g.OpNode(g.TRANSFORMER, IdentityTransformer(), (a,))
        right = g.OpNode(g.TRANSFORMER, IdentityTransformer(), (a,))
        sink = g.OpNode(g.GATHER, None, (left, right))
        order = g.ancestors([sink])
        assert len(order) == 5  # shared node not duplicated

    def test_successors_map(self):
        inp, sink = _chain(2)
        succ = g.successors_map([sink])
        assert succ[sink.id] == []
        assert len(succ[inp.id]) == 1

    def test_substitute_replaces_placeholder(self):
        inp, sink = _chain(3)
        replacement = g.source("dataset")
        new_sink = g.substitute(sink, {inp.id: replacement})
        order = g.ancestors([new_sink])
        assert order[0] is replacement
        assert not any(n.is_pipeline_input for n in order)

    def test_substitute_preserves_untouched_subgraphs(self):
        inp, sink = _chain(2)
        other_inp, other_sink = _chain(2)
        merged = g.OpNode(g.GATHER, None, (sink, other_sink))
        new = g.substitute(merged, {inp.id: g.source("d")})
        # other_sink has no replaced ancestor: object identity preserved.
        assert new.parents[1] is other_sink
        assert new.parents[0] is not sink


class TestValidation:
    def test_valid_chain(self):
        _inp, sink = _chain(2)
        g.validate_dag([sink])

    def test_transformer_arity(self):
        bad = g.OpNode(g.TRANSFORMER, IdentityTransformer(), ())
        with pytest.raises(ValueError, match="one parent"):
            g.validate_dag([bad])

    def test_apply_needs_estimator_parent(self):
        inp = g.pipeline_input()
        bad = g.OpNode(g.APPLY, None, (inp, inp))
        with pytest.raises(ValueError, match="apply nodes"):
            g.validate_dag([bad])

    def test_gather_needs_parents(self):
        bad = g.OpNode(g.GATHER, None, ())
        with pytest.raises(ValueError, match="gather"):
            g.validate_dag([bad])

    def test_to_dot_contains_nodes(self):
        _inp, sink = _chain(2)
        dot = g.to_dot([sink])
        assert dot.startswith("digraph")
        assert dot.count("->") == 2

    def test_to_dot_escapes_special_characters(self):
        inp = g.pipeline_input()
        sink = g.OpNode(g.TRANSFORMER, IdentityTransformer(), (inp,),
                        label='say "hi"\nback\\slash')
        dot = g.to_dot([sink])
        assert '\\"hi\\"' in dot
        assert "\\n" in dot
        assert "\\\\slash" in dot
        # No raw quote or newline survives inside any label attribute.
        for line in dot.splitlines():
            if "label=" in line:
                body = line.split('label="', 1)[1].rsplit('"', 1)[0]
                assert '\n' not in body
                assert all(c != '"' or body[i - 1] == "\\"
                           for i, c in enumerate(body))

    def test_to_dot_crlf_is_one_newline(self):
        inp = g.pipeline_input()
        sink = g.OpNode(g.TRANSFORMER, IdentityTransformer(), (inp,),
                        label="a\r\nb")
        dot = g.to_dot([sink])
        assert 'label="a\\nb"' in dot

    def test_to_dot_highlight(self):
        inp, sink = _chain(2)
        dot = g.to_dot([sink], highlight={sink.id})
        assert dot.count("fillcolor") == 1
