module spritefs/bench

go 1.22

require spritefs v0.0.0

replace spritefs => ../
