"""Rank-aware image-text alignment at desk scale.

Inner-product similarity between a toy trainable encoder and learnable
class embeddings, per-class statistical calibration of similarity rows,
a bidirectional KL alignment loss plus a pairwise ordinal rank loss with
hand-derived gradients, and a reproducible experiment CLI.
"""

__version__ = "0.1.0"
