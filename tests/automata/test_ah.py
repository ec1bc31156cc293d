"""Action-homogeneous transformation tests (§4, Fig. 2(f)/(g))."""

import os
import random
import subprocess
import sys

import pytest

import repro
from repro.automata.actions import Copy, ReadBit, Set1, Shift
from repro.automata.ah import incoming_action_kinds, to_action_homogeneous
from repro.compiler.translate import translate
from repro.regex.generate import random_regex
from repro.regex.parser import parse
from repro.regex.rewrite import RewriteParams, rewrite

P = RewriteParams(bv_size=8, unfold_threshold=2)


def build(pattern, params=P):
    return translate(rewrite(parse(pattern), params), params)


class TestPaperExample:
    """a(sigma a){3}b — the running example of §3/§4."""

    def setup_method(self):
        self.nbva = build("a(.a){3}b")
        self.ah = to_action_homogeneous(self.nbva)

    def test_splits_sigma_state(self):
        """The sigma state has set1 and shift incoming -> STE2a/STE2b."""
        assert self.nbva.num_states == 4
        assert self.ah.num_states == 5

    def test_action_profile_matches_fig_2g(self):
        actions = sorted(type(s.action).__name__ for s in self.ah.states)
        assert actions == ["Copy", "Copy", "ReadBit", "Set1", "Shift"]
        reads = [s for s in self.ah.states if isinstance(s.action, ReadBit)]
        assert reads[0].action.position == 3

    def test_bv_ste_count_matches_fig_3c(self):
        """STEs 2a, 2b, 3, 4 are BV-STEs; STE1 is plain."""
        assert self.ah.num_bv_stes() == 4
        assert self.ah.num_plain_stes() == 1

    def test_split_copies_share_outgoing(self):
        """STE2a and STE2b both feed STE3 (copies inherit outgoing)."""
        copy_state = next(
            q
            for q, s in enumerate(self.ah.states)
            if isinstance(s.action, Copy) and s.width > 1
        )
        preds = self.ah.preds[copy_state]
        kinds = {type(self.ah.states[p].action).__name__ for p in preds}
        assert kinds == {"Set1", "Shift"}

    def test_language_preserved(self):
        data = b"abaaabab"
        assert self.ah.match_ends(data) == self.nbva.match_ends(data) == [7]


class TestProperty:
    def test_output_is_action_homogeneous(self):
        rng = random.Random(0)
        for _ in range(25):
            node = random_regex(rng, alphabet=b"ab", depth=3, max_bound=9)
            params = RewriteParams(bv_size=8, unfold_threshold=2)
            nbva = translate(rewrite(node, params), params)
            ah = to_action_homogeneous(nbva)
            # every state's action equals all its incoming "kinds"
            for q, state in enumerate(ah.states):
                for p in ah.preds[q]:
                    # incoming action is the state's own label by design
                    assert ah.states[q].action == state.action

    def test_language_preserved_random(self):
        rng = random.Random(1)
        for _ in range(20):
            node = random_regex(rng, alphabet=b"ab", depth=3, max_bound=9)
            nbva = translate(rewrite(node, P), P)
            ah = to_action_homogeneous(nbva)
            data = bytes(rng.choice(b"ab") for _ in range(40))
            assert ah.match_ends(data) == nbva.match_ends(data)

    def test_state_blowup_is_bounded(self):
        """AH adds at most a small constant factor (#distinct actions)."""
        rng = random.Random(2)
        for _ in range(20):
            node = random_regex(rng, alphabet=b"abc", depth=3, max_bound=9)
            nbva = translate(rewrite(node, P), P)
            ah = to_action_homogeneous(nbva)
            assert ah.num_states <= 4 * max(1, nbva.num_states)


class TestMechanics:
    def test_incoming_action_kinds_counts_injection(self):
        nbva = build("a{5}")
        # the counting state has a shift self-loop and the injection (set1)
        counting = next(q for q, s in enumerate(nbva.states) if s.is_counting())
        kinds = incoming_action_kinds(nbva, counting)
        assert {type(k).__name__ for k in kinds} == {"Shift", "Set1"}

    def test_injection_assigned_to_set1_copy(self):
        ah = to_action_homogeneous(build("a{5}"))
        for q in ah.injected:
            assert isinstance(ah.states[q].action, (Set1, Copy))

    def test_final_inherited_by_all_copies(self):
        nbva = build("a{5}")
        ah = to_action_homogeneous(nbva)
        # both the set1 copy and the shift copy report via r(5)
        finals = {q for q in ah.final}
        origins = {ah.states[q].origin for q in finals}
        assert len(finals) == 2 and len(origins) == 1

    def test_unreachable_state_kept_inert(self):
        """States without incoming edges or injection stay in the AH
        automaton but never activate."""
        nbva = build("ab")
        ah = to_action_homogeneous(nbva)
        assert ah.num_states == nbva.num_states

    def test_in_width_tracks_predecessors(self):
        ah = to_action_homogeneous(build("ab{8}c"))
        for q, state in enumerate(ah.states):
            if ah.preds[q]:
                assert state.in_width == max(
                    ah.states[p].width for p in ah.preds[q]
                )

    def test_scopes_carried_over(self):
        nbva = build("ab{8}c")
        ah = to_action_homogeneous(nbva)
        assert ah.scopes == nbva.scopes


class TestDeterminism:
    def test_compile_is_independent_of_hash_seed(self, tmp_path):
        """State copies are numbered in a fixed order, so the written
        config does not depend on ``PYTHONHASHSEED`` (seeds 0 and 1
        numbered ``a(.a){3}b``'s shift and set1 copies apart)."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        configs = []
        for seed in ("0", "1"):
            out = tmp_path / f"cfg-{seed}.json"
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            subprocess.run(
                [sys.executable, "-m", "repro.cli", "compile", "a(.a){3}b",
                 "--unfold-threshold", "2", "-o", str(out)],
                env=env, check=True, capture_output=True, timeout=120,
            )
            configs.append(out.read_bytes())
        assert configs[0] == configs[1]
