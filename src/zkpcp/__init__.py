"""Masked-sumcheck zero-knowledge PCP toolkit over prime fields.

The package exports nothing itself: import its submodules, such as
``zkpcp.pcp`` or ``zkpcp.audit``.
"""
