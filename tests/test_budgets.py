"""Small documents whose output would be exponential are refused by a named cap.

A listing of closed sets on n points stops past min(2**16, 2**22 // n) sets, so
it never holds more than 2**22 set-point pairs, and a derived family of
``family_transforms`` stops at the same bound.  Each case pins the exit code, an
empty stdout and the one stderr line, or the message of the DomainError; none
of them reads a clock.
"""

import json

import pytest

from ultratop import DomainError, SetFamily, family_transforms
from test_cli import call_main


def singletons(k, n):
    """A family of k singleton members over n labels: k + 1 atoms, so 2**(k + 1) stable sets."""
    labels = [f"{i:05x}" for i in range(n)]
    return {"carrier": labels, "members": [{"name": f"F{i}", "set": [labels[i]]} for i in range(k)]}


def chain(n, width=1):
    """A chain of n blocks of ``width`` points each; its patch has the blocks as atoms, so
    2**n closed sets."""
    labels = [f"p{i:04d}" for i in range(n * width)]
    return {"carrier": labels, "closed": [labels[:k * width] for k in range(n + 1)]}


def refused(cap):
    return 2, "", f"domain error: listing closed sets is capped at {cap} sets\n"


def test_a_small_family_over_many_labels_is_refused():
    """12 singletons over 8000 labels (72 KB): 8192 sets of up to 8000 labels each."""
    assert call_main(["ultra-topology", "-"], singletons(12, 8000)) == refused(524)


@pytest.mark.parametrize("n, cap", [(64, 65536), (65, 64527), (70, 59918)])
def test_the_patch_of_a_chain_is_refused_by_sets_then_by_size(n, cap):
    """Up to 64 points the cap is 2**16 sets, as it was before the size bound."""
    assert cap == min(2**16, 2**22 // n)
    assert call_main(["patch", "-"], chain(n)) == refused(cap)


def test_the_patch_of_a_chain_of_wide_blocks_is_refused():
    """16 blocks of 64 labels (88 KB): 2**16 sets, within the old cap, of up to 1024 labels."""
    assert call_main(["patch", "-"], chain(16, 64)) == refused(4096)


def test_a_listing_exactly_at_the_size_bound_passes():
    """9 singletons over 4096 labels give 2**10 sets, exactly 2**22 // 4096; one label more
    lowers the cap to 1023 sets."""
    code, out, err = call_main(["ultra-topology", "-"], singletons(9, 4096))
    closed = json.loads(out)["closed"]
    assert (code, err, len(closed)) == (0, "", 2**22 // 4096)
    assert closed[0] == [] and closed[-1] == singletons(9, 4096)["carrier"]
    assert call_main(["ultra-topology", "-"], singletons(9, 4097)) == refused(1023)


def test_derived_families_of_disjoint_members_are_refused():
    """17 disjoint members have 2**17 - 1 unions."""
    doc = singletons(17, 17)
    with pytest.raises(DomainError) as caught:
        family_transforms(SetFamily.from_json(doc))
    assert str(caught.value) == "derived families are capped at 65536 sets"
    assert len(family_transforms(SetFamily.from_json(singletons(16, 16))).unions.members) == 2**16 - 1


def test_a_derived_family_over_many_labels_is_refused():
    """15 singletons over 50 000 labels have 2**15 - 1 unions, each a mask of 50 000 bits:
    the sweep stops past 2**22 // 50 000 = 83 of them."""
    with pytest.raises(DomainError) as caught:
        family_transforms(SetFamily.from_json(singletons(15, 50_000)))
    assert str(caught.value) == "derived families are capped at 83 sets"
