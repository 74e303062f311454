"""Desk-scale CNN training kit built around the mixture separability loss:
a between-class cross-entropy term plus a within-class pairwise-distance
squared hinge, attachable as pooling+FC heads at multiple network blocks."""
