"""The 816-call ``omniedit_av`` digest of ``av_digest.py``, as a test: the
MLP dual field it covers runs the same forward pass as training."""

from av_digest import RECORDED, digest


def test_omniedit_av_digest_is_unchanged():
    assert digest() == (816, RECORDED)
