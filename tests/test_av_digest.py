"""The 816-call ``omniedit_av`` digests of ``av_digest.py``, one per field
on the joint (video, audio) state (diagonal, full covariance, MLP), as a
test: the ``MlpVelocityField`` it covers runs the same forward pass as
training. A failure shows which digest moved."""

from av_digest import RECORDED, digest


def test_omniedit_av_digest_is_unchanged():
    assert digest() == (816, RECORDED)
