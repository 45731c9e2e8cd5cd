"""Memory layout of the WBSN platform.

The one platform of the paper (Sec. IV-B):

* instruction memory: 96 KByte = 32 KWords x 24 bit, in 8 banks;
* data memory: 64 KByte = 32 KWords x 16 bit, in 16 banks;
* a three-channel ADC behind memory-mapped registers in shared DM;
* data-ready interrupt lines wired to the synchronizer.

Logical data addresses are 16-bit word addresses.  ``[0,
PRIVATE_WORDS)`` is each core's private section, which the ATU tags
with the issuing core's id (Sec. IV-A); ``[SHARED_BASE,
SHARED_LIMIT)`` is the shared section, interleaved over every DM bank.
The top 256 words (``0x7F00``-``0x7FFF``) form the peripheral window,
which is intercepted by the platform before it reaches the ATU/data
memory.  Synchronization points live in the shared section so that
ordinary ``lw`` can inspect them, as in the paper where they are
"reserved locations ... in the shared data memory".
"""

#: Instruction memory: banks, and 24-bit words per bank.
IM_BANKS = 8
IM_WORDS_PER_BANK = 4096

#: Data memory: banks, and 16-bit words per bank.
DM_BANKS = 16
DM_WORDS_PER_BANK = 2048

#: Words of each core's private section (logical ``[0, PRIVATE_WORDS)``).
PRIVATE_WORDS = 2048

#: The shared section: logical ``[SHARED_BASE, SHARED_LIMIT)``.
SHARED_BASE = PRIVATE_WORDS
SHARED_WORDS = 15 * 1024
SHARED_LIMIT = SHARED_BASE + SHARED_WORDS

#: Logical address of synchronization point 0, and the number of
#: reserved points (all inside the shared section).
SYNC_POINT_BASE = 0x4000
SYNC_POINTS = 64

#: Base of the memory-mapped peripheral window (logical DM address).
PERIPH_BASE = 0x7F00

#: Synchronizer: interrupt subscription mask register (read/write).
REG_INT_SUBSCRIBE = 0x7F00
#: Synchronizer: pending interrupt lines (read-only).
REG_INT_STATUS = 0x7F01
#: ADC sample registers, one per channel (read clears data-ready).
REG_ADC_DATA0 = 0x7F10
REG_ADC_DATA1 = 0x7F11
REG_ADC_DATA2 = 0x7F12
#: ADC control: write a channel-enable bitmask.
REG_ADC_CTRL = 0x7F18
#: ADC status: data-ready bitmask (read-only, non-destructive).
REG_ADC_STATUS = 0x7F19
#: Identifier of the issuing core (read-only).
REG_CORE_ID = 0x7F20
#: Free-running cycle counter, low and high 16-bit halves (read-only).
REG_CYCLE_LO = 0x7F21
REG_CYCLE_HI = 0x7F22

#: Interrupt line numbers of the ADC channels.
IRQ_ADC_CH0 = 0
IRQ_ADC_CH1 = 1
IRQ_ADC_CH2 = 2
