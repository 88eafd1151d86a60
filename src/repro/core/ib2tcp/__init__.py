"""IB2TCP: checkpoint on InfiniBand, restart on Ethernet (paper §6.4)."""

from .plugin import Ib2TcpPlugin

__all__ = ["Ib2TcpPlugin"]
